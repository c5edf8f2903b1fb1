# Runs every binary in BINARIES (comma-separated) with flags it does not
# declare, `--help` and `--no-such-flag=1`, and requires exit status 2 with
# a usage line on stderr. A binary that ignored the flag would instead run
# its default experiment and exit 0.
#
# Usage:
#   cmake -DBINARIES=<exe>,<exe>... -P RunUnknownFlag.cmake
if(NOT BINARIES)
  message(FATAL_ERROR "RunUnknownFlag.cmake: BINARIES is required")
endif()
string(REPLACE "," ";" BINARIES "${BINARIES}")
foreach(BIN ${BINARIES})
  foreach(FLAG "--help" "--no-such-flag=1")
    execute_process(COMMAND ${BIN} ${FLAG}
                    OUTPUT_QUIET
                    ERROR_VARIABLE STDERR
                    RESULT_VARIABLE RC
                    TIMEOUT 30)
    if(NOT RC EQUAL 2)
      message(FATAL_ERROR "${BIN} ${FLAG} exited with '${RC}', expected 2")
    endif()
    if(NOT STDERR MATCHES "usage: ")
      message(FATAL_ERROR "${BIN} ${FLAG} printed no usage line: ${STDERR}")
    endif()
  endforeach()
endforeach()
