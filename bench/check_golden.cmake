# Regenerates one committed bench artifact and compares it with the
# committed copy:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<repo>/BENCH_x.json -DWORKDIR=<dir>
#         -P check_golden.cmake
#
# Runs BENCH in a fresh WORKDIR (the benches write their JSON into the
# current directory) and fails unless the file it wrote is byte-identical
# to GOLDEN. WORKDIR is left in place so a mismatch can be inspected.
foreach(var BENCH GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

get_filename_component(name "${GOLDEN}" NAME)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORKDIR}/${name}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${WORKDIR}/${name} differs from the committed ${GOLDEN}. "
                      "If the change is intended, regenerate it by running the bench "
                      "from the repository root and explain the diff.")
endif()
