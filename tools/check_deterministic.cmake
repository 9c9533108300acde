# Runs the command given after "--" twice, in DIR/a and DIR/b, and checks
# that both runs exit 0 and write byte-identical FILES (paths relative to the
# run directory). With STDOUT=ON the two runs' standard output must match
# too. Each regular expression in EXPECT must match a line of the first
# run's standard output, as with grep. Each run's standard output is kept as
# DIR/<run>/stdout.txt, so later tests can inspect DIR/a.
#
#   cmake -DDIR=DIR [-DFILES=F1;F2] [-DSTDOUT=ON] [-DEXPECT=RE1;RE2]
#         -P check_deterministic.cmake -- COMMAND [ARGS...]
set(cmd)
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DIR)
  message(FATAL_ERROR "usage: cmake -DDIR=DIR [-DFILES=F1;F2] [-DSTDOUT=ON] [-DEXPECT=RE1;RE2] "
                      "-P check_deterministic.cmake -- COMMAND [ARGS...]")
endif()

foreach(run a b)
  file(REMOVE_RECURSE "${DIR}/${run}")
  file(MAKE_DIRECTORY "${DIR}/${run}")
  execute_process(COMMAND ${cmd} WORKING_DIRECTORY "${DIR}/${run}"
                  RESULT_VARIABLE rc OUTPUT_FILE "${DIR}/${run}/stdout.txt")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} exited with ${rc}")
  endif()
endforeach()

if(STDOUT)
  list(APPEND FILES stdout.txt)
endif()
foreach(f ${FILES})
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${DIR}/a/${f}" "${DIR}/b/${f}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${f} differs between two runs of the same command")
  endif()
endforeach()

foreach(re ${EXPECT})
  file(STRINGS "${DIR}/a/stdout.txt" matched REGEX "${re}")
  if(NOT matched)
    message(FATAL_ERROR "no line of standard output matches '${re}'")
  endif()
endforeach()
