# Pins the seeded campaign outputs across commits: fault_campaign's
# summary (stdout) and --verbose lines (stderr) at seed 42 x 200, and
# svc_run's timing-free --json report for tools/check.sh's telemetry
# configuration (seed 11, chaos 20) and its soak (seed 2026, chaos 25),
# must match tests/golden/ byte for byte.  All of them depend on every
# draw and classification of the fault strikes.  With
# $ULECC_REGEN_GOLDEN set, rewrites the files.
#
# Invoked by ctest (tool_campaign_golden) with:
#   -DFAULT_CAMPAIGN=<path> -DSVC_RUN=<path>
#   -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<scratch dir>

execute_process(
    COMMAND ${FAULT_CAMPAIGN} --seed 42 --campaigns 200 --verbose
    RESULT_VARIABLE rc
    OUTPUT_FILE ${WORK_DIR}/fault_campaign_seed42.json
    ERROR_FILE ${WORK_DIR}/fault_campaign_seed42_verbose.txt)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault_campaign --seed 42: exit ${rc}")
endif()

# The seed-2026 soak is the one with silent corruptions caught.
set(telemetry --seed 11 --requests 400 --chaos 20 --batch-max 8
              --batch-linger-us 3000)
set(soak --seed 2026 --requests 2000 --users 400 --chaos 25)
foreach(config telemetry soak)
    list(GET ${config} 1 seed)
    execute_process(
        COMMAND ${SVC_RUN} ${${config}} --arrival bursty --quiet
                --json ${WORK_DIR}/svc_run_seed${seed}.json
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "svc_run --seed ${seed}: exit ${rc}")
    endif()
endforeach()

foreach(name fault_campaign_seed42.json fault_campaign_seed42_verbose.txt
             svc_run_seed11.json svc_run_seed2026.json)
    set(golden ${GOLDEN_DIR}/${name})
    if(DEFINED ENV{ULECC_REGEN_GOLDEN})
        file(COPY_FILE ${WORK_DIR}/${name} ${golden})
        continue()
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/${name}
                ${golden}
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "${WORK_DIR}/${name} differs from ${golden}")
    endif()
endforeach()
