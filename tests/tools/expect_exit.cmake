# Runs PROGRAM with the space-separated ARGS and passes when it exits
# with EXIT_CODE and its stderr contains STDERR. Used by the ctest cases
# that pin a binary's usage errors:
#   cmake -DPROGRAM=... "-DARGS=--flag value" -DEXIT_CODE=2 "-DSTDERR=..." -P expect_exit.cmake
# With -DFULL_LINK=PATH, PATH is first made a symlink to /dev/full, in a
# directory created afresh, so no write to it arrives in full; where
# /dev/full is not a character device the script prints "skipped: ..."
# instead (the case's SKIP_REGULAR_EXPRESSION).
if(DEFINED FULL_LINK)
  execute_process(COMMAND test -c /dev/full RESULT_VARIABLE not_device)
  if(NOT not_device EQUAL 0)
    message("skipped: /dev/full is not a character device")
    return()
  endif()
  get_filename_component(link_dir "${FULL_LINK}" DIRECTORY)
  file(REMOVE_RECURSE "${link_dir}")
  file(MAKE_DIRECTORY "${link_dir}")
  file(CREATE_LINK /dev/full "${FULL_LINK}" SYMBOLIC)
endif()
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
