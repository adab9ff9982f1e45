# Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
#
# Golden parity check: runs parity_dump with the given arguments and
# compares its output byte for byte with a committed golden file. The
# goldens pin stop positions, access counts and exact results of the
# single-node and distributed engines over parity_dump's workload grid, so
# any behavioural drift fails ctest instead of waiting for a manual diff.
#
#   cmake -DPARITY_DUMP=<binary> "-DARGS=<arg;arg>" -DGOLDEN=<file>
#         -DOUTPUT=<file> -P tests/parity_golden.cmake
#
# To refresh a golden after an intended behaviour change, rerun parity_dump
# with the same arguments and commit its output over the golden file.

execute_process(
  COMMAND ${PARITY_DUMP} ${ARGS}
  OUTPUT_FILE ${OUTPUT}
  RESULT_VARIABLE dump_result)
if(NOT dump_result EQUAL 0)
  message(FATAL_ERROR "parity_dump ${ARGS} exited with ${dump_result}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
  RESULT_VARIABLE compare_result)
if(NOT compare_result EQUAL 0)
  message(FATAL_ERROR
    "parity_dump ${ARGS} differs from the golden file; inspect with\n"
    "  diff ${GOLDEN} ${OUTPUT}")
endif()
