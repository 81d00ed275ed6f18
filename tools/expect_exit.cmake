# Run a command and pass only when it exits with exactly EXPECT_EXIT and its
# merged stdout/stderr matches EXPECT_REGEX.  ctest's PASS_REGULAR_EXPRESSION
# alone ignores the exit status, so a CLI that printed the error and carried
# on would still pass.
#
#   cmake -DEXPECT_EXIT=2 -DEXPECT_REGEX=<regex> -P expect_exit.cmake \
#         -- <program> [args...]
#
# Arguments must not contain `;` (CMake would split them into list items).
if(NOT DEFINED EXPECT_EXIT OR NOT DEFINED EXPECT_REGEX)
  message(FATAL_ERROR
          "expect_exit.cmake needs -DEXPECT_EXIT and -DEXPECT_REGEX")
endif()

# The command is everything after the `--` separator.
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after `--`")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
message("${out}")
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_EXIT}")
endif()
if(NOT out MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match: ${EXPECT_REGEX}")
endif()
