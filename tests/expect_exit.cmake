# Runs EXE with ARGS ('|'-separated) and fails unless it exits with status
# EXPECT: a crash, a signal or any other status fails the test.
#
#   cmake -DEXE=<path> -DARGS=--orgs|0 -DEXPECT=2 -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit status '${status}', expected "
                      "${EXPECT}\n${out}${err}")
endif()
