# Fails unless the lane table in tools/check.sh (LANES=(...)) and the CI
# matrix in .github/workflows/ci.yml (lane: [...]) name the same lanes.
# tidy is the one lane that runs only locally.
#
#   cmake -DREPO=<repository root> -P tests/check_lanes_test.cmake
file(READ "${REPO}/tools/check.sh" check_sh)
string(REGEX MATCH "\nLANES=\\(([^)]*)\\)" found "${check_sh}")
separate_arguments(local_lanes UNIX_COMMAND "${CMAKE_MATCH_1}")
list(REMOVE_ITEM local_lanes tidy)

file(READ "${REPO}/.github/workflows/ci.yml" ci_yml)
string(REGEX MATCH "\n *lane: \\[([^]]*)\\]" found "${ci_yml}")
string(REPLACE "," " " ci_lanes "${CMAKE_MATCH_1}")
separate_arguments(ci_lanes UNIX_COMMAND "${ci_lanes}")

if(NOT local_lanes OR NOT ci_lanes)
  message(FATAL_ERROR "no lane list found: check.sh '${local_lanes}', "
                      "ci.yml '${ci_lanes}'")
endif()
list(SORT local_lanes)
list(SORT ci_lanes)
if(NOT local_lanes STREQUAL ci_lanes)
  message(FATAL_ERROR "tools/check.sh lanes (without tidy) '${local_lanes}' "
                      "differ from the CI matrix '${ci_lanes}'")
endif()
