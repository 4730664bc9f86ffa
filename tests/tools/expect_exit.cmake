# Runs PROGRAM with the space-separated ARGS and passes when it exits
# with EXIT_CODE and its stderr contains STDERR. Used by the ctest cases
# that pin a binary's usage errors:
#   cmake -DPROGRAM=... "-DARGS=--flag value" -DEXIT_CODE=2 "-DSTDERR=..." -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT code STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit ${code}, expected ${EXIT_CODE}\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "${STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: stderr lacks \"${STDERR}\"\nstderr: ${err}")
endif()
