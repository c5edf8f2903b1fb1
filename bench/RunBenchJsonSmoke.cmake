# Runs ${BENCH} with --json=${JSON} at a tiny size and schema-checks the
# emitted file (the machine-readable side of the fig12/fig13/ablate/kv
# harness). Portable cousin of RunGoldenDiff.cmake: bench throughput is
# nondeterministic, so instead of a golden diff this validates structure —
# the file exists, parses as the JsonReport shape, and contains a row for
# every protocol the comparison promises.
#
# Optional parameters (comma-separated; defaults match the figure benches):
#   PROTOCOLS   protocols that must each have at least one row
#   EXTRA_KEYS  additional JSON keys that must appear (the chaos counters)
#   EXTRA_ARGS  additional CLI flags (the chaos smoke's --seed=N)
#   SAME_PER_PROTOCOL  keys whose value must be identical in every row of
#               one protocol (a per-lock property such as bytes_per_lock
#               must not change between variants or thread counts)
#   NONZERO_KEYS  keys whose value must be above 0 in every row of every
#               protocol (a mechanism the run must be seen firing)
if(NOT DEFINED PROTOCOLS)
  set(PROTOCOLS "Lock,RWLock,BravoRW,SOLERO")
endif()
string(REPLACE "," ";" PROTOCOLS "${PROTOCOLS}")
if(NOT DEFINED EXTRA_KEYS)
  set(EXTRA_KEYS "")
endif()
string(REPLACE "," ";" EXTRA_KEYS "${EXTRA_KEYS}")
if(NOT DEFINED EXTRA_ARGS)
  set(EXTRA_ARGS "")
endif()
string(REPLACE "," ";" EXTRA_ARGS "${EXTRA_ARGS}")
execute_process(COMMAND ${BENCH} --quick --threads=${THREADS} --json=${JSON}
                        ${EXTRA_ARGS}
                OUTPUT_VARIABLE STDOUT
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${RC}")
endif()
if(NOT EXISTS ${JSON})
  message(FATAL_ERROR "${BENCH} did not write ${JSON}")
endif()
file(READ ${JSON} DOC)
# Structural spine of BenchCommon.h's JsonReport schema.
foreach(KEY "\"figure\"" "\"rows\"" "\"variant\"" "\"protocol\""
        "\"threads\"" "\"ops_per_sec\"" "\"rmw_per_op\"" "\"stores_per_op\""
        "\"failure_ratio\"")
  string(FIND "${DOC}" "${KEY}" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "${JSON} is missing required key ${KEY}")
  endif()
endforeach()
# Every protocol of the promised comparison must have rows.
foreach(PROTO ${PROTOCOLS})
  string(FIND "${DOC}" "\"protocol\": \"${PROTO}\"" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "${JSON} has no rows for protocol ${PROTO}")
  endif()
endforeach()
# Bench-specific extra columns (e.g. the chaos soak counters).
foreach(KEY ${EXTRA_KEYS})
  string(FIND "${DOC}" "\"${KEY}\"" POS)
  if(POS EQUAL -1)
    message(FATAL_ERROR "${JSON} is missing required key \"${KEY}\"")
  endif()
endforeach()
# Per-protocol constants: every row of a protocol carries the same value.
if(DEFINED SAME_PER_PROTOCOL)
  string(REPLACE "," ";" SAME_PER_PROTOCOL "${SAME_PER_PROTOCOL}")
  foreach(KEY ${SAME_PER_PROTOCOL})
    foreach(PROTO ${PROTOCOLS})
      string(REGEX MATCHALL
             "\"protocol\": \"${PROTO}\"[^}]*\"${KEY}\": [^,}]+"
             HITS "${DOC}")
      set(VALUES "")
      foreach(HIT ${HITS})
        string(REGEX REPLACE ".*\"${KEY}\": " "" V "${HIT}")
        list(APPEND VALUES "${V}")
      endforeach()
      list(REMOVE_DUPLICATES VALUES)
      list(LENGTH VALUES N)
      if(NOT N EQUAL 1)
        message(FATAL_ERROR "${JSON}: ${PROTO} rows disagree on \"${KEY}\" "
                            "(values: ${VALUES})")
      endif()
    endforeach()
  endforeach()
endif()
# Mechanisms the run must show firing: every row of every protocol.
if(DEFINED NONZERO_KEYS)
  string(REPLACE "," ";" NONZERO_KEYS "${NONZERO_KEYS}")
  foreach(KEY ${NONZERO_KEYS})
    foreach(PROTO ${PROTOCOLS})
      string(REGEX MATCHALL
             "\"protocol\": \"${PROTO}\"[^}]*\"${KEY}\": [^,}]+"
             HITS "${DOC}")
      if(NOT HITS)
        message(FATAL_ERROR "${JSON}: ${PROTO} has no \"${KEY}\" value")
      endif()
      foreach(HIT ${HITS})
        string(REGEX REPLACE ".*\"${KEY}\": " "" V "${HIT}")
        if(NOT V GREATER 0)
          message(FATAL_ERROR "${JSON}: ${PROTO} reports \"${KEY}\": ${V}; "
                              "the run must show it above 0")
        endif()
      endforeach()
    endforeach()
  endforeach()
endif()
# No row may carry a malformed (empty/nan/inf) throughput.
foreach(BAD "\"ops_per_sec\": }" "\"ops_per_sec\": ," "nan" "inf")
  string(FIND "${DOC}" "${BAD}" POS)
  if(NOT POS EQUAL -1)
    message(FATAL_ERROR "${JSON} contains malformed value near '${BAD}'")
  endif()
endforeach()
