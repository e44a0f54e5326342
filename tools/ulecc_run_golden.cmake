# Pins what Pete simulates: ulecc-run --metrics on each reference
# program, with and without an I-cache and prefetcher, must match the
# committed tests/golden/ulecc_run_<program>[_icache].json byte for byte
# once the host-dependent fields (sim_wall_seconds, sim_mips, program)
# are stripped.  With $ULECC_REGEN_GOLDEN set, rewrites the files.
#
# Invoked by ctest (tool_ulecc_run_golden) with:
#   -DULECC_RUN=<path to ulecc-run> -DTOOLS_DIR=<tools source dir>
#   -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<scratch dir>

foreach(program mulos_k17 sample_gcd)
    foreach(variant plain icache)
        set(extra "")
        set(name ulecc_run_${program})
        if(variant STREQUAL "icache")
            set(extra --icache 4 --prefetch)
            set(name ${name}_icache)
        endif()
        set(path ${WORK_DIR}/${name}.json)
        execute_process(
            COMMAND ${ULECC_RUN} ${extra} --metrics ${path}
                    ${TOOLS_DIR}/${program}.s
            RESULT_VARIABLE rc
            OUTPUT_QUIET)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "ulecc-run ${extra} ${program}.s: exit ${rc}")
        endif()
        file(READ ${path} doc)
        foreach(key sim_wall_seconds sim_mips program)
            string(JSON doc REMOVE "${doc}" ${key})
        endforeach()
        set(golden ${GOLDEN_DIR}/${name}.json)
        if(DEFINED ENV{ULECC_REGEN_GOLDEN})
            file(WRITE ${golden} "${doc}\n")
            continue()
        endif()
        file(READ ${golden} expected)
        if(NOT "${doc}\n" STREQUAL "${expected}")
            message(FATAL_ERROR "${name}: metrics differ from ${golden}\n"
                                "actual:\n${doc}\nexpected:\n${expected}")
        endif()
        message(STATUS "${name}: metrics match the golden")
    endforeach()
endforeach()
