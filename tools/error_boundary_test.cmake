# Runs each command-line tool (and the trace_analysis example, when built)
# on a bad input — a non-integer value for an integer flag, a missing trace
# file — and requires exit status 2 and exactly one stderr line
# "<tool>: <message>".
#
#   cmake -DSYNCON_CHECK=... -DSYNCON_EXPLORE=... -DSYNCON_METRICSD=...
#         -DSYNCON_MONITORD=... [-DTRACE_ANALYSIS=...] -P error_boundary_test.cmake

function(expect_bad_input tool path)
  execute_process(COMMAND "${path}" ${ARGN}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${tool} ${ARGN}: exit status '${status}', want 2\n${err}")
  endif()
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT lines EQUAL 1 OR NOT err MATCHES "^${tool}: [^\n]+\n$")
    message(FATAL_ERROR
      "${tool} ${ARGN}: want one stderr line '${tool}: <message>', got:\n${err}")
  endif()
  message(STATUS "${tool} ${ARGN}: ${err}")
endfunction()

expect_bad_input(syncon_check "${SYNCON_CHECK}" --seed=abc)
expect_bad_input(syncon_explore "${SYNCON_EXPLORE}" --max-schedules=abc)
expect_bad_input(syncon_metricsd "${SYNCON_METRICSD}" --processes=abc)
expect_bad_input(syncon_monitord "${SYNCON_MONITORD}" --tenants=abc)
if(TRACE_ANALYSIS)
  expect_bad_input(trace_analysis "${TRACE_ANALYSIS}" --generate --processes=abc)
  expect_bad_input(trace_analysis "${TRACE_ANALYSIS}"
    --trace=${CMAKE_CURRENT_BINARY_DIR}/no-such-dir/missing.trace)
endif()
