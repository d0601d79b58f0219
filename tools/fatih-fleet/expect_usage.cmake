# Runs fatih-fleet with the space-separated arguments in ARGS and passes
# iff it rejects them the way a malformed command line must be rejected:
# the usage text on stderr and exit status 2 (not a crash, not a sweep).
#   cmake -DFLEET=<fatih-fleet> "-DARGS=sweep --jobs" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${FLEET} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "fatih-fleet ${ARGS}: expected exit 2, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage: fatih-fleet")
  message(FATAL_ERROR "fatih-fleet ${ARGS}: usage text missing from stderr\n${err}")
endif()
