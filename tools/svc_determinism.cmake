# Determinism check for svc_run: the timing-free report AND every
# telemetry artifact (request trace, timeline, SLO alert log, flight
# recorder dump) must be byte-identical for the same seed across
# independent parallel runs, across --serial/parallel execution, and
# across fixed pool widths (--jobs 1 and --jobs 4; the default width
# follows the host's core count).
#
# Invoked by ctest (tool_svc_run_determinism) with:
#   -DSVC_RUN=<path to svc_run> -DWORK_DIR=<scratch dir>

set(args --seed 11 --requests 150 --chaos 20 --arrival bursty --quiet)
set(artifacts json trace timeline slo flight)

function(svc_det_run tag extra_args)
    execute_process(
        COMMAND ${SVC_RUN} ${args} ${extra_args}
                --json ${WORK_DIR}/svc_det_${tag}.json
                --trace-requests ${WORK_DIR}/svc_det_${tag}.trace
                --timeline ${WORK_DIR}/svc_det_${tag}.timeline
                --slo ${WORK_DIR}/svc_det_${tag}.slo
                --flight-recorder ${WORK_DIR}/svc_det_${tag}.flight
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "svc_run (${tag}) exited ${rc}")
    endif()
endfunction()

svc_det_run(a "")
svc_det_run(b "")
svc_det_run(serial "--serial")
svc_det_run(jobs1 "--jobs;1")
svc_det_run(jobs4 "--jobs;4")

foreach(other b serial jobs1 jobs4)
    foreach(ext ${artifacts})
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${WORK_DIR}/svc_det_a.${ext}
                    ${WORK_DIR}/svc_det_${other}.${ext}
            RESULT_VARIABLE same)
        if(NOT same EQUAL 0)
            message(FATAL_ERROR
                    "${ext} artifact differs between run a and run "
                    "${other}: determinism contract broken")
        endif()
    endforeach()
endforeach()
