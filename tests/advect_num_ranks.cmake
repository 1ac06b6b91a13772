# Runs ADVECT on DECK (which sets `num_ranks = 2`) and on a copy of it
# with `num_ranks = 1` written to WORK_DIR. Both runs must exit 0 and
# print the same `analytic check` line.
#
#   cmake -DADVECT=<advect> -DDECK=<deck> -DWORK_DIR=<dir> \
#         -P tests/advect_num_ranks.cmake
file(READ "${DECK}" deck)
string(REPLACE "num_ranks = 2" "num_ranks = 1" one_rank "${deck}")
if(one_rank STREQUAL deck)
  message(FATAL_ERROR "${DECK} does not set num_ranks = 2")
endif()
file(WRITE "${WORK_DIR}/advect_num_ranks_one.in" "${one_rank}")

foreach(run IN ITEMS "${DECK}" "${WORK_DIR}/advect_num_ranks_one.in")
  execute_process(COMMAND "${ADVECT}" "${run}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "advect ${run} exited ${rc}:\n${out}${err}")
  endif()
  string(REGEX MATCH "analytic check: [^\n]*" line "${out}")
  if(NOT line)
    message(FATAL_ERROR "advect ${run} printed no analytic check:\n${out}")
  endif()
  message(STATUS "${run}: ${line}")
  list(APPEND lines "${line}")
endforeach()

list(GET lines 0 two_ranks)
list(GET lines 1 one_rank_line)
if(NOT two_ranks STREQUAL one_rank_line)
  message(FATAL_ERROR "2 ranks: '${two_ranks}'\n1 rank: '${one_rank_line}'")
endif()
