# Schema conformance for svc_run: a chaos-heavy report must validate
# against schemas/svc_report.schema.json.
#
# Invoked by ctest (tool_svc_run_schema) with:
#   -DSVC_RUN=... -DJSON_CHECK=... -DSCHEMA=... -DWORK_DIR=...

execute_process(
    COMMAND ${SVC_RUN} --seed 5 --requests 80 --chaos 30 --quiet
            --json ${WORK_DIR}/svc_schema.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "svc_run exited ${rc}")
endif()

execute_process(
    COMMAND ${JSON_CHECK} ${SCHEMA} ${WORK_DIR}/svc_schema.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "svc report failed schema validation (${rc})")
endif()

# The config minimums are enforced: the same report with one count (or
# the rate) set to 0 must fail validation on that bound.
file(READ ${WORK_DIR}/svc_schema.json report)
foreach(key requests rate_per_sec max_size max_attempts)
    string(REGEX REPLACE "\"${key}\": [0-9.]+," "\"${key}\": 0,"
           mutated "${report}")
    if(mutated STREQUAL report)
        message(FATAL_ERROR "no ${key} field to mutate in the report")
    endif()
    file(WRITE ${WORK_DIR}/svc_schema_bad.json "${mutated}")
    execute_process(
        COMMAND ${JSON_CHECK} ${SCHEMA} ${WORK_DIR}/svc_schema_bad.json
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 1
       OR NOT err MATCHES "${key}: (below m|not above exclusiveM)inimum")
        message(FATAL_ERROR "json_check on ${key} = 0: exit ${rc}: ${err}")
    endif()
endforeach()
