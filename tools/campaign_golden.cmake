# Pins the seeded campaign outputs across commits: fault_campaign's
# summary (stdout) and --verbose lines (stderr) at seed 42 x 200, and
# svc_run's outputs for tools/check.sh's telemetry configuration
# (seed 11, chaos 20) and its soak (seed 2026, chaos 25).  The
# timing-free --json reports must match tests/golden/ byte for byte;
# the request trace, timeline, SLO log, flight dump and stdout summary
# are pinned by their SHA-256 in tests/golden/svc_artifacts.sha256
# (the seed-11 trace alone is ~0.5 MB).  All of them depend on every
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
set(sums "")
foreach(config telemetry soak)
    list(GET ${config} 1 seed)
    set(out ${WORK_DIR}/svc_run_seed${seed})
    execute_process(
        COMMAND ${SVC_RUN} ${${config}} --arrival bursty
                --json ${out}.json --trace-requests ${out}.trace
                --timeline ${out}.timeline --slo ${out}.slo
                --flight-recorder ${out}.flight
        OUTPUT_FILE ${out}.stdout
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "svc_run --seed ${seed}: exit ${rc}")
    endif()
    foreach(ext json trace timeline slo flight stdout)
        file(SHA256 ${out}.${ext} sum)
        string(APPEND sums "${sum}  svc_run_seed${seed}.${ext}\n")
    endforeach()
endforeach()
file(WRITE ${WORK_DIR}/svc_artifacts.sha256 "${sums}")

foreach(name fault_campaign_seed42.json fault_campaign_seed42_verbose.txt
             svc_run_seed11.json svc_run_seed2026.json
             svc_artifacts.sha256)
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
