# Record a scenario's task log, summarize it with `trace-info --json`, and
# byte-compare the summary with its committed expectation.
#
#   cmake -DPCS_CLI=<pcs_cli> -DSCENARIO=<scenario.json> -DEXPECTED=<expected.json>
#         -DWORK_DIR=<scratch dir> -P trace_info_check.cmake
#
# Regenerate the expectation after an intentional model or schema change:
#   pcs_cli record <scenario.json> --out run.jsonl
#   pcs_cli trace-info run.jsonl --json > <expected.json>
foreach(var PCS_CLI SCENARIO EXPECTED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_info_check: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(log "${WORK_DIR}/run.jsonl")
set(summary "${WORK_DIR}/trace_info.json")
execute_process(COMMAND "${PCS_CLI}" record "${SCENARIO}" --out "${log}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcs_cli record ${SCENARIO} failed (${rc})")
endif()
execute_process(COMMAND "${PCS_CLI}" trace-info "${log}" --json
                RESULT_VARIABLE rc OUTPUT_FILE "${summary}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcs_cli trace-info ${log} failed (${rc})")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${summary}" "${EXPECTED}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace-info summary ${summary} differs from ${EXPECTED}")
endif()
