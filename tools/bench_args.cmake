# Bench command-line and journal-path contract: every bench accepts
# exactly one flag, --serial.  An unknown flag, or a journal variable
# ($ULECC_BENCH_METRICS, and $ULECC_MULTSPACE_METRICS for
# bench_multspace) naming a file that cannot be opened, must exit 2
# with an [invalid-input] message -- never run on in parallel or drop
# its records with exit 0.  A well-formed control run must succeed.
#
# Invoked by ctest (tool_bench_args) with:
#   -DBENCH_FIG=<path to bench_fig7_02>
#   -DBENCH_MULTSPACE=<path to bench_multspace>
#   -DWORK_DIR=<scratch dir>

# Runs one rejected case; @p needle must appear in the message.
function(expect_rejected tag needle)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${tag}: exit '${rc}', want 2")
    endif()
    if(NOT err MATCHES "\\[invalid-input\\]")
        message(FATAL_ERROR "${tag}: no [invalid-input] message: ${err}")
    endif()
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${tag}: message does not name '${needle}': "
                            "${err}")
    endif()
endfunction()

set(missing_dir ${WORK_DIR}/bench_args_no_such_dir/journal.jsonl)

expect_rejected("typo flag" "--serail" ${BENCH_FIG} --serail)
expect_rejected("flag after --serial" "--jobs" ${BENCH_FIG} --serial --jobs)
expect_rejected("directory journal" "ULECC_BENCH_METRICS"
                ULECC_BENCH_METRICS=${WORK_DIR} ${BENCH_FIG})
expect_rejected("journal in missing dir" "ULECC_BENCH_METRICS"
                ULECC_BENCH_METRICS=${missing_dir} ${BENCH_FIG} --serial)
expect_rejected("multspace typo flag" "--paralel"
                ${BENCH_MULTSPACE} --paralel)
expect_rejected("multspace bench journal" "ULECC_BENCH_METRICS"
                ULECC_BENCH_METRICS=${WORK_DIR} ${BENCH_MULTSPACE})
expect_rejected("multspace directory journal" "ULECC_MULTSPACE_METRICS"
                ULECC_MULTSPACE_METRICS=${WORK_DIR} ${BENCH_MULTSPACE})

# Control: --serial with a writable journal runs and journals.
set(journal ${WORK_DIR}/bench_args_journal.jsonl)
file(REMOVE ${journal})
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ULECC_BENCH_METRICS=${journal}
            ${BENCH_FIG} --serial
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "control run failed (exit ${rc}): ${err}")
endif()
if(out STREQUAL "")
    message(FATAL_ERROR "control run printed nothing")
endif()
file(READ ${journal} records)
if(records STREQUAL "")
    message(FATAL_ERROR "control run journaled nothing")
endif()
file(REMOVE ${journal})
