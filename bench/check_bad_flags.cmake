# Runs ${BENCH} with malformed command lines and checks that each one
# exits with status 2 and names the problem on stderr.
#
#   cmake -DBENCH=<bench binary> -P check_bad_flags.cmake

function(expect_usage_error expected)
  execute_process(COMMAND ${BENCH} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}': expected exit status 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR "'${ARGN}': stderr lacks '${expected}':\n${err}")
  endif()
  if(NOT err MATCHES "known flags: .*--jobs")
    message(FATAL_ERROR "'${ARGN}': stderr lacks the known flags:\n${err}")
  endif()
endfunction()

expect_usage_error("unknown flag --bogus" --bogus)
expect_usage_error("unknown flag --help" --help)
expect_usage_error("--jobs wants an integer, got 'abc'" --jobs abc)
expect_usage_error("--jobs must be >= 0" --jobs -3)
