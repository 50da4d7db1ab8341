# An example's standard output must equal its committed copy,
# examples/expected/<name>.txt, byte for byte. Every example prints a
# deterministic report (fixed seeds, no timings), so any difference is
# a change in what the library computes.
#
#   cmake -DEXAMPLE=<example binary> -DEXPECTED=<expected .txt> \
#         -DWORK_DIR=<scratch dir> -P examples/check_stdout.cmake

get_filename_component(name ${EXPECTED} NAME_WE)
if(NOT EXISTS ${EXPECTED})
  message(FATAL_ERROR "${name}: no expected output at ${EXPECTED}")
endif()

# Run in a scratch directory: some examples write files next to them.
file(MAKE_DIRECTORY ${WORK_DIR})
set(actual ${WORK_DIR}/${name}.txt)
execute_process(COMMAND ${EXAMPLE}
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE status
                OUTPUT_FILE ${actual})
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${name}: exit status ${status}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${EXPECTED} ${actual}
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${EXPECTED} ${actual})
  endif()
  message(FATAL_ERROR "${name}: stdout differs from ${EXPECTED} "
                      "(this run's output is ${actual})")
endif()
