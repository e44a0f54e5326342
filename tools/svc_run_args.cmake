# Hostile-argument table for svc_run: every malformed numeric flag value
# must be rejected as a usage error (exit 2, an [invalid-input] message
# on stderr) -- never accepted into the report, truncated, or left to
# saturate into a campaign that cannot finish.  Syntax and fit are
# flag_parse.hh's; ranges are SvcConfig::validate()'s, so the rows
# cover both.  A well-formed control run with the same flags must
# still succeed.
#
# Invoked by ctest (tool_svc_run_args) with:
#   -DSVC_RUN=<path to svc_run> -DWORK_DIR=<scratch dir>

set(hostile
    "--seed,abc"
    "--seed,-1"
    "--seed,9223372036854775808"
    "--requests,99999999999999999999"
    "--requests,0"
    "--requests,-5"
    "--requests,12x"
    "--requests, 10"
    "--users,0"
    "--users,72057594037927937"
    "--workers,0"
    "--workers,4294967296"
    "--workers,65537"
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
    "--diurnal,--day-ms,0.00001"
    "--batch-max,abc"
    "--batch-max,0"
    "--batch-max,4294967296"
    "--batch-linger-us,-3"
    "--batch-slack,inf"
    "--batch-setup,0.5"
    "--batch-slack,-1"
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

# --no-batch is shorthand for --batch-max 1: the two reports, config
# echo included, must be byte-identical.
foreach(mode no-batch batch-max-1)
    if(mode STREQUAL "no-batch")
        set(batch_flags --no-batch)
    else()
        set(batch_flags --batch-max 1)
    endif()
    execute_process(
        COMMAND ${SVC_RUN} --seed 515 --requests 60 --chaos 20
                --arrival bursty --quiet ${batch_flags}
                --json ${WORK_DIR}/svc_args_${mode}.json
        RESULT_VARIABLE rc
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "svc_run ${batch_flags} failed (exit ${rc}): ${err}")
    endif()
endforeach()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/svc_args_no-batch.json
            ${WORK_DIR}/svc_args_batch-max-1.json
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "--no-batch and --batch-max 1 reports differ")
endif()

# Zero linger closes every batch at join, so the policy that runs has
# max_size 1 whatever --batch-max asked for; the config echo must say
# so (every one of this run's batches holds one member).
execute_process(
    COMMAND ${SVC_RUN} --seed 5 --requests 200 --arrival bursty
            --rate 2000 --batch-max 8 --batch-linger-us 0 --quiet
            --json ${WORK_DIR}/svc_args_zero_linger.json
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "zero-linger run failed (exit ${rc}): ${err}")
endif()
file(READ ${WORK_DIR}/svc_args_zero_linger.json report)
string(JSON enabled GET "${report}" config batch enabled)
string(JSON max_size GET "${report}" config batch max_size)
string(JSON occupancy_max GET "${report}" batch occupancy max)
if(NOT enabled STREQUAL "OFF" OR NOT max_size EQUAL 1
   OR NOT occupancy_max EQUAL 1)
    message(FATAL_ERROR "zero linger echoes enabled '${enabled}', "
                        "max_size '${max_size}' (occupancy max "
                        "${occupancy_max}); want false, 1 (1)")
endif()
