# Hostile-argument table for ulecc-run: every malformed numeric flag
# value must be rejected as a usage error (exit 2, an [invalid-input]
# message on stderr) -- never a crash, a silently zeroed budget, or a
# cache geometry the simulator cannot index.  A well-formed control run
# with the same flags must still succeed.
#
# Invoked by ctest (tool_ulecc_run_args) with:
#   -DULECC_RUN=<path to ulecc-run> -DPROGRAM=<path to sample_gcd.s>

set(hostile
    "--icache,abc"
    "--icache,3"
    "--icache,-1"
    "--icache,0"
    "--icache,4x"
    "--icache,+4"
    "--icache,512"
    "--icache,99999999999999999999"
    "--max-cycles,xyz"
    "--max-cycles,-5"
    "--max-cycles,0"
    "--max-cycles,12junk"
    "--max-cycles,99999999999999999999"
    "--dump,0x10000100,junk"
    "--dump,-1,4"
    "--dump,0x100000000,1"
    "--dump,0xfffffffc,2")

foreach(case IN LISTS hostile)
    string(REPLACE "," ";" argv "${case}")
    execute_process(
        COMMAND ${ULECC_RUN} ${argv} ${PROGRAM}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "ulecc-run ${argv}: exit '${rc}', want 2")
    endif()
    if(NOT err MATCHES "\\[invalid-input\\]")
        message(FATAL_ERROR
                "ulecc-run ${argv}: no [invalid-input] message: ${err}")
    endif()
endforeach()

execute_process(
    COMMAND ${ULECC_RUN} --icache 4 --max-cycles 0x100000
            --dump 0x10000100 4 ${PROGRAM}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "10000100:")
    message(FATAL_ERROR "control run failed (exit ${rc}): ${out}")
endif()
