# Runs benches with malformed command lines and checks that each one
# exits with status 2 and names the problem on stderr.
#
#   cmake -DBENCH=<any bench> -DFIG12=<bench_fig12_periteration>
#         -DFIG15=<bench_fig15_scalability> -P check_bad_flags.cmake

function(expect_usage_error bench expected)
  execute_process(COMMAND ${bench} ${ARGN}
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

expect_usage_error(${BENCH} "unknown flag --bogus" --bogus)
expect_usage_error(${BENCH} "unknown flag --help" --help)
expect_usage_error(${BENCH} "--jobs wants an integer, got 'abc'" --jobs abc)
expect_usage_error(${BENCH} "--jobs must be >= 0" --jobs -3)
# Bench-specific count flags share the same path.
expect_usage_error(${FIG15} "--per-rack wants an integer, got 'x'"
                   --per-rack x)
expect_usage_error(${FIG15} "--per-rack must be >= 1" --per-rack 0)
expect_usage_error(${FIG12} "--workers must be >= 1" --workers -1)
