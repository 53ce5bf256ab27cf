# Flag contract of the bench binaries: every bench exits 2 on a flag it
# does not take, and --micro / --threads N still work where accepted.
# Invoked by CTest as:
#   cmake -DBENCH_DIR=<dir> -DBENCHES=<name:name:...> -P bench_flags_test.cmake

cmake_policy(SET CMP0057 NEW)  # if(... IN_LIST ...)

if(NOT BENCH_DIR OR NOT BENCHES)
  message(FATAL_ERROR "BENCH_DIR and BENCHES must be set")
endif()
string(REPLACE ":" ";" benches "${BENCHES}")

# Flags each bench takes (the rest take none).
set(micro_benches bench_adaptive_convergence bench_index_micro
  bench_persistence bench_range_pushdown)
set(threaded_benches bench_fig6_macro_unopt bench_fig8_macro_opt
  bench_incremental bench_persistence bench_table2_sota)

function(expect_bench name expected_exit expected_substr bench)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
    TIMEOUT 60)
  if(NOT code STREQUAL "${expected_exit}")
    message(SEND_ERROR
      "[${bench} ${name}] expected exit ${expected_exit}, got ${code}\n"
      "${out}${err}")
  endif()
  if(expected_substr AND NOT "${out}${err}" MATCHES "${expected_substr}")
    message(SEND_ERROR
      "[${bench} ${name}] output missing '${expected_substr}':\n${out}${err}")
  endif()
endfunction()

foreach(bench IN LISTS benches)
  expect_bench(unknown_flag 2 "" ${bench} --no-such-flag)
  if(bench STREQUAL "bench_storage_micro")
    continue()  # google-benchmark parses its own --benchmark_* flags.
  endif()
  if(NOT bench IN_LIST micro_benches)
    expect_bench(micro_not_taken 2 "usage:" ${bench} --micro)
  endif()
  if(bench IN_LIST threaded_benches)
    expect_bench(threads_zero 2 "wants an integer" ${bench} --threads 0)
    expect_bench(threads_garbage 2 "wants an integer" ${bench} --threads x)
    expect_bench(threads_missing 2 "usage:" ${bench} --threads)
  else()
    expect_bench(threads_not_taken 2 "usage:" ${bench} --threads 2)
  endif()
endforeach()

# The accepted flags still run: the snapshot micro slice is sub-second.
expect_bench(micro_threads 0 "\"record\": \"persistence\"" bench_persistence
  --micro --threads 2)
