# The block memo may only change how fast the host simulates, never what
# it simulates: for each reference program, ulecc-run --metrics with and
# without --no-block-cache must agree byte for byte once the host
# wall-clock fields (sim_wall_seconds, sim_mips) and the memo's own
# counters (block_cache) are stripped.
#
# Invoked by ctest (tool_ulecc_run_block_cache) with:
#   -DULECC_RUN=<path to ulecc-run> -DTOOLS_DIR=<tools source dir>
#   -DWORK_DIR=<scratch dir>

foreach(program mulos_k17 sample_gcd)
    foreach(mode on off)
        set(extra "")
        if(mode STREQUAL "off")
            set(extra --no-block-cache)
        endif()
        set(path ${WORK_DIR}/block_cache_${program}_${mode}.json)
        execute_process(
            COMMAND ${ULECC_RUN} ${extra} --metrics ${path}
                    ${TOOLS_DIR}/${program}.s
            RESULT_VARIABLE rc
            OUTPUT_QUIET)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "ulecc-run ${extra} ${program}.s: exit ${rc}")
        endif()
        file(READ ${path} doc)
        string(JSON memo ERROR_VARIABLE absent GET "${doc}" block_cache)
        if(mode STREQUAL "on" AND absent)
            message(FATAL_ERROR "${program}: no block_cache section with "
                                "the memo on")
        endif()
        if(mode STREQUAL "off" AND NOT absent)
            message(FATAL_ERROR "${program}: --no-block-cache did not "
                                "switch the memo off")
        endif()
        set(strip sim_wall_seconds sim_mips)
        if(mode STREQUAL "on")
            list(APPEND strip block_cache)
        endif()
        foreach(key IN LISTS strip)
            string(JSON doc REMOVE "${doc}" ${key})
        endforeach()
        set(doc_${mode} "${doc}")
    endforeach()
    if(NOT doc_on STREQUAL doc_off)
        message(FATAL_ERROR "${program}: architectural metrics differ "
                            "block memo on vs off\non:\n${doc_on}\n"
                            "off:\n${doc_off}")
    endif()
    message(STATUS "${program}: metrics identical block memo on vs off")
endforeach()
