# Runs each command-line tool with a non-integer value for an integer flag
# and requires exit status 2 and exactly one stderr line "<tool>: <message>".
#
#   cmake -DSYNCON_CHECK=... -DSYNCON_EXPLORE=... -DSYNCON_METRICSD=...
#         -DSYNCON_MONITORD=... -P error_boundary_test.cmake

function(expect_bad_flag tool path flag)
  execute_process(COMMAND "${path}" "${flag}"
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${tool} ${flag}: exit status '${status}', want 2\n${err}")
  endif()
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT lines EQUAL 1 OR NOT err MATCHES "^${tool}: [^\n]+\n$")
    message(FATAL_ERROR
      "${tool} ${flag}: want one stderr line '${tool}: <message>', got:\n${err}")
  endif()
  message(STATUS "${tool} ${flag}: ${err}")
endfunction()

expect_bad_flag(syncon_check "${SYNCON_CHECK}" --seed=abc)
expect_bad_flag(syncon_explore "${SYNCON_EXPLORE}" --max-schedules=abc)
expect_bad_flag(syncon_metricsd "${SYNCON_METRICSD}" --processes=abc)
expect_bad_flag(syncon_monitord "${SYNCON_MONITORD}" --tenants=abc)
