# Hostile-argument table for fault_campaign and diffuzz: a malformed,
# out-of-range or missing --seed/--campaigns/--cases value must exit 2
# with an [invalid-input] message and the usage line -- never be
# truncated ("12x" as 12), wrapped ("-1" as 2^64 - 1) or read as zero.
# Seeds stop at 2^63 - 1, the largest the JSON summaries carry exactly;
# control runs at that bound must succeed and report it exactly.
#
# Invoked by ctest (tool_campaign_args) with:
#   -DFAULT_CAMPAIGN=<path to fault_campaign> -DDIFFUZZ=<path to diffuzz>

set(hostile
    "FAULT_CAMPAIGN,--campaigns,abc"
    "FAULT_CAMPAIGN,--campaigns,12x"
    "FAULT_CAMPAIGN,--campaigns,0"
    "FAULT_CAMPAIGN,--seed,-1"
    "FAULT_CAMPAIGN,--seed,9223372036854775808"
    "FAULT_CAMPAIGN,--seed,0x8000000000000000"
    "FAULT_CAMPAIGN,--seed"
    "DIFFUZZ,--cases,12x"
    "DIFFUZZ,--cases,0"
    "DIFFUZZ,--cases, 5"
    "DIFFUZZ,--seed,-1"
    "DIFFUZZ,--seed,9223372036854775808"
    "DIFFUZZ,--cases")

foreach(case IN LISTS hostile)
    string(REPLACE "," ";" argv "${case}")
    list(POP_FRONT argv tool)
    execute_process(COMMAND ${${tool}} ${argv}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "\\[invalid-input\\].*usage:")
        message(FATAL_ERROR "${tool} ${argv}: exit '${rc}', want 2 with "
                            "[invalid-input] and usage: ${err}")
    endif()
endforeach()

function(control_run tool count_flag want)
    execute_process(
        COMMAND ${tool} --seed 9223372036854775807 ${count_flag} 3
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0 OR NOT out MATCHES "${want}")
        message(FATAL_ERROR "${tool} control run (exit ${rc}): ${out}${err}")
    endif()
endfunction()

control_run(${FAULT_CAMPAIGN} --campaigns "\"seed\": 9223372036854775807,")
control_run(${DIFFUZZ} --cases "seed 9223372036854775807\\)")
