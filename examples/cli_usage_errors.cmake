# Flag mistakes the CLI must reject up front: each argument list below has
# to exit 2 with the usage text instead of running a query.
#
#   cmake -DCLI=path/to/paralagg_cli -P cli_usage_errors.cmake

function(expect_usage)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 10)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: paralagg_cli")
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR "paralagg_cli ${args}: exit '${rc}', want 2 with usage\n${err}")
  endif()
endfunction()

# Every synthetic generator shifts 1 << scale.
expect_usage(sssp --synthetic chain --scale 64 --ranks 2)
expect_usage(sssp --synthetic chain --scale -1 --ranks 2)
# A numeric flag takes the whole token, and a finite value.
expect_usage(sssp --synthetic chain --scale abc --ranks 2)
expect_usage(sssp --synthetic chain --scale 4 --ranks two)
expect_usage(sssp --synthetic chain --scale 4x --ranks 2)
expect_usage(sssp --synthetic chain --scale 4 --ranks 2 --retry-backoff nan)
# The collective schedule is not selectable.
expect_usage(sssp --synthetic chain --scale 4 --ranks 2 --schedule rd)
