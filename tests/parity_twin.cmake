# Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
#
# Twin parity check: runs parity_dump over a single-node engine and over its
# distributed twin with the same extra arguments, rewrites the distributed
# engine names (dBPA, dTPUT, DistTPUT) to the single-node ones, and requires
# the two dumps to be identical. ARGS must arm --governor: governed lines
# carry completion and theta, so degraded answers are compared too, and the
# check requires at least one degraded line so that a governor which never
# trips cannot pass it vacuously. No golden file is involved.
#
#   cmake -DPARITY_DUMP=<binary> -DSINGLE=<algo> -DDIST=<algo>
#         "-DARGS=<arg;arg>" -DOUTPUT=<file prefix> -P tests/parity_twin.cmake

foreach(side SINGLE DIST)
  execute_process(
    COMMAND ${PARITY_DUMP} --algos=${${side}} ${ARGS}
    OUTPUT_FILE ${OUTPUT}.${${side}}.txt
    RESULT_VARIABLE dump_result)
  if(NOT dump_result EQUAL 0)
    message(FATAL_ERROR
      "parity_dump --algos=${${side}} ${ARGS} exited with ${dump_result}")
  endif()
endforeach()

file(READ ${OUTPUT}.${SINGLE}.txt single)
file(READ ${OUTPUT}.${DIST}.txt dist)
string(REPLACE "DistTPUT" "TPUT" dist "${dist}")
string(REPLACE "dTPUT" "TPUT" dist "${dist}")
string(REPLACE "dBPA" "BPA" dist "${dist}")
if(NOT single STREQUAL dist)
  file(WRITE ${OUTPUT}.${DIST}.renamed.txt "${dist}")
  message(FATAL_ERROR
    "--algos=${DIST} differs from its twin --algos=${SINGLE} (${ARGS}); "
    "inspect with\n"
    "  diff ${OUTPUT}.${SINGLE}.txt ${OUTPUT}.${DIST}.renamed.txt")
endif()
string(REGEX MATCH " completion=[^e]" degraded "${single}")
if(NOT degraded)
  message(FATAL_ERROR
    "parity_dump ${ARGS}: no degraded line, so the governed twin check "
    "compared exact answers only")
endif()
