# Runs BIN (with the optional ;-separated ARGS) and fails unless its
# stdout matches the GOLDEN file byte for byte; on a mismatch the
# actual output lands in ACTUAL and a unified diff is printed. Re-blessing a golden needs a CHANGES.md line saying
# what moved and why.
#
#   cmake -DBIN=<exe> [-DARGS=<args>] -DGOLDEN=<file> -DACTUAL=<file> \
#       -P diff_stdout.cmake
execute_process(COMMAND ${BIN} ${ARGS} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
  file(WRITE ${ACTUAL} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}")
endif()
