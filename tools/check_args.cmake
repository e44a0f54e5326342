# tools/check.sh command-line contract: an unknown flag or a malformed
# --diffuzz count must exit 2 with an [invalid-input] message and the
# usage line, before anything is configured or built.
#
# Invoked by ctest (tool_check_args) with:
#   -DCHECK_SH=<path to tools/check.sh>

# Runs one rejected case; @p needle must appear in the message.  The
# timeout turns a check.sh that ignores the flag (and starts building)
# into a failure instead of a hang.
function(expect_rejected tag needle)
    execute_process(
        COMMAND bash ${CHECK_SH} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err
        TIMEOUT 30)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${tag}: exit '${rc}', want 2")
    endif()
    if(NOT err MATCHES "\\[invalid-input\\]")
        message(FATAL_ERROR "${tag}: no [invalid-input] message: ${err}")
    endif()
    if(NOT err MATCHES "usage: tools/check.sh")
        message(FATAL_ERROR "${tag}: no usage line: ${err}")
    endif()
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${tag}: message does not name '${needle}': "
                            "${err}")
    endif()
endfunction()

expect_rejected("typo flag" "--no-tsna" --no-asan --no-tsna)
expect_rejected("non-numeric diffuzz count" "abc" --diffuzz abc)
expect_rejected("signed diffuzz count" "-5" --no-tsan --diffuzz -5)
expect_rejected("missing diffuzz count" "--diffuzz" --diffuzz)
