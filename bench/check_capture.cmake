# Runs BENCH with its default flags and fails unless its standard output
# equals the committed capture CAPTURE byte for byte.  bench/CMakeLists.txt
# registers one ctest per gated capture:
#   cmake -DBENCH=<binary> -DCAPTURE=<file> -P bench/check_capture.cmake
# On a mismatch the output is written to <capture name>.actual in the
# working directory (build/bench for the ctests), so `diff CAPTURE
# <capture name>.actual` shows the difference.
execute_process(COMMAND "${BENCH}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
file(READ "${CAPTURE}" expected)
get_filename_component(name "${CAPTURE}" NAME)
file(REMOVE "${name}.actual")
if(NOT actual STREQUAL expected)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR
    "${BENCH} printed something other than ${CAPTURE}; its output is in "
    "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
