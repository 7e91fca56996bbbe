# Runs one bench and compares the record it writes with the committed copy,
# byte for byte. The bench_smoke tests invoke it as
#
#   cmake -DBENCH=<binary> "-DARGS=<arguments>" -DOUT_DIR=<dir>
#         -DRECORD=BENCH_<name>.json -DBASELINE_DIR=<bench/baselines>
#         -P check_record.cmake
#
# It fails when the bench exits nonzero or when the record differs; on a
# difference it prints both files and the command that re-pins the record.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${BENCH}" ${args} "--bench-json=${OUT_DIR}"
                WORKING_DIRECTORY "${OUT_DIR}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()

set(actual "${OUT_DIR}/${RECORD}")
set(expected "${BASELINE_DIR}/${RECORD}")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${expected}" "${actual}"
                RESULT_VARIABLE differ)
if(differ)
  set(expected_text "(missing)\n")
  if(EXISTS "${expected}")
    file(READ "${expected}" expected_text)
  endif()
  file(READ "${actual}" actual_text)
  message(FATAL_ERROR
    "${RECORD} differs from the committed record.\n"
    "--- committed ${expected}\n${expected_text}"
    "--- written ${actual}\n${actual_text}"
    "If the change is intended, re-pin it with:\n"
    "  cp ${actual} ${expected}\n")
endif()
