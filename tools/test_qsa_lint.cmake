# qsa_lint's exit contract: a file it cannot parse or read stops the
# run with exit status 1 and one "fatal: " line on stderr.
#
#   cmake -DQSA_LINT=<qsa_lint binary> -DWORK_DIR=<scratch dir> \
#         -P tools/test_qsa_lint.cmake

function(expect_fatal file expected)
  execute_process(COMMAND ${QSA_LINT} ${file}
                  RESULT_VARIABLE status
                  ERROR_VARIABLE stderr
                  OUTPUT_QUIET)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR
            "qsa_lint ${file}: exit status ${status}, expected 1")
  endif()
  if(NOT stderr STREQUAL "${expected}\n")
    message(FATAL_ERROR
            "qsa_lint ${file}: stderr\n  ${stderr}expected\n  ${expected}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/bad.qasm "OPENQASM 2.0;\nqreg q[1];\nzz q[0];\n")
expect_fatal(${WORK_DIR}/bad.qasm
             "fatal: QASM parse error: line 3, column 1: unsupported QASM gate 'zz'")
file(REMOVE ${WORK_DIR}/missing.qasm)
expect_fatal(${WORK_DIR}/missing.qasm
             "fatal: cannot open '${WORK_DIR}/missing.qasm' for reading")
