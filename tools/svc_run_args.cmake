# Hostile-argument table for svc_run: every malformed numeric flag value
# must be rejected as a usage error (exit 2, an [invalid-input] message
# on stderr) -- never accepted into the report, truncated, or left to
# saturate into a campaign that cannot finish.  A well-formed control
# run with the same flags must still succeed.
#
# Invoked by ctest (tool_svc_run_args) with:
#   -DSVC_RUN=<path to svc_run>

set(hostile
    "--seed,abc"
    "--seed,-1"
    "--requests,99999999999999999999"
    "--requests,0"
    "--requests,-5"
    "--requests,12x"
    "--requests, 10"
    "--users,0"
    "--workers,0"
    "--workers,4294967296"
    "--jobs,-1"
    "--jobs,100000"
    "--queue-cap,+8"
    "--rate,-5"
    "--rate,0"
    "--rate,abc"
    "--rate,nan"
    "--rate,inf"
    "--rate,1e999"
    "--rate,5x"
    "--rate,."
    "--clients,0"
    "--think-ms,-1"
    "--think-ms,1e300"
    "--day-ms,nan"
    "--diurnal-amp,2"
    "--diurnal-amp,-0.5"
    "--diurnal-steps,0"
    "--batch-max,abc"
    "--batch-max,0"
    "--batch-max,4294967296"
    "--batch-linger-us,-3"
    "--batch-slack,inf"
    "--batch-setup,0.5"
    "--chaos,101"
    "--chaos,-1"
    "--deadline-factor,-16"
    "--deadline-floor-ms,1e-999"
    "--retries,0"
    "--retries,65"
    "--window-ms,0"
    "--window-ms,0x")

foreach(case IN LISTS hostile)
    string(REPLACE "," ";" argv "${case}")
    execute_process(
        COMMAND ${SVC_RUN} --requests 5 --quiet ${argv}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "svc_run ${argv}: exit '${rc}', want 2")
    endif()
    if(NOT err MATCHES "\\[invalid-input\\]")
        message(FATAL_ERROR
                "svc_run ${argv}: no [invalid-input] message: ${err}")
    endif()
endforeach()

execute_process(
    COMMAND ${SVC_RUN} --seed 0x5 --requests 20 --users 8 --workers 2
            --jobs 2 --queue-cap 64 --rate 250.5 --think-ms 1.5
            --diurnal --day-ms 200 --diurnal-amp 0.5 --diurnal-steps 4
            --batch-max 4 --batch-linger-us 500 --batch-slack 2
            --batch-setup .25 --chaos 10 --deadline-factor 16
            --deadline-floor-ms 2 --retries 3 --window-ms 10 --quiet
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "control run failed (exit ${rc}): ${err}")
endif()
