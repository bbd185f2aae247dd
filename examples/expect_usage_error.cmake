# Runs `paladin_sort --demo 1024 FLAG VALUE` and fails unless the tool
# rejects the flag: exit status 2 and a stderr message matching EXPECT.
#   cmake -DEXE=path/to/paladin_sort -DFLAG=--perf -DVALUE=4,x \
#         "-DEXPECT=bad --perf value" -P expect_usage_error.cmake
execute_process(COMMAND "${EXE}" --demo 1024 "${FLAG}" "${VALUE}"
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${FLAG} '${VALUE}': expected exit status 2, got "
    "'${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${FLAG} '${VALUE}': stderr does not match "
    "'${EXPECT}':\n${err}")
endif()
