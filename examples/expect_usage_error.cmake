# Runs `paladin_sort --demo 1024 FLAG VALUE [EXTRA...]` and fails unless
# the tool rejects the input: exit status 2 and a stderr message matching
# EXPECT.  EXTRA is an optional space-separated list of further arguments.
#   cmake -DEXE=path/to/paladin_sort -DFLAG=--perf -DVALUE=4,x \
#         "-DEXPECT=bad --perf value" -P expect_usage_error.cmake
separate_arguments(extra UNIX_COMMAND "${EXTRA}")
execute_process(COMMAND "${EXE}" --demo 1024 "${FLAG}" "${VALUE}" ${extra}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${FLAG} '${VALUE}': expected exit status 2, got "
    "'${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${FLAG} '${VALUE}': stderr does not match "
    "'${EXPECT}':\n${err}")
endif()
