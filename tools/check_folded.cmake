# Runs the command given after "--" and checks that it produced a folded
# profile: one or more "frames cycles" lines with cycles > 0, and nothing
# else. With -DOUT=FILE the profile is that file (deleted before the run);
# without it, the profile is the command's stdout.
#
#   cmake [-DOUT=FILE] -P check_folded.cmake -- COMMAND [ARGS...]
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
if(NOT cmd)
  message(FATAL_ERROR "usage: cmake [-DOUT=FILE] -P check_folded.cmake -- COMMAND [ARGS...]")
endif()

if(OUT)
  file(REMOVE "${OUT}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE stdout)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command exited with ${rc}")
endif()
if(OUT)
  if(NOT EXISTS "${OUT}")
    message(FATAL_ERROR "${OUT} was not written")
  endif()
  file(READ "${OUT}" profile)
else()
  set(profile "${stdout}")
endif()

if(profile STREQUAL "")
  message(FATAL_ERROR "empty profile")
endif()
string(REGEX REPLACE "[^\n]+ [1-9][0-9]*\n" "" rest "${profile}")
if(NOT rest STREQUAL "")
  string(SUBSTRING "${rest}" 0 200 head)
  message(FATAL_ERROR "not a folded profile line: ${head}")
endif()
