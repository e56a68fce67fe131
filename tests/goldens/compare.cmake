# One golden.<program> case (registered by CMakeLists.txt next to this file):
#
#   cmake -DPROGRAM=<exe> -DKIND=<STDOUT|JSON> -DEXPECTED=<file>
#         -DWORK_DIR=<dir> -DMANIFEST=<sha256 file> [-DARGS="<args>"]
#         -P compare.cmake
#
# Fails unless what PROGRAM produced equals EXPECTED byte for byte (for
# JSON, both without their run stamps) and every plot series it wrote has
# its hash in MANIFEST. The output stays in WORK_DIR.
cmake_minimum_required(VERSION 3.16)
include(${CMAKE_CURRENT_LIST_DIR}/golden.cmake)

separate_arguments(args UNIX_COMMAND "${ARGS}")
golden_run("${PROGRAM}" "${KIND}" "${WORK_DIR}" ${args})

set(expected "${EXPECTED}")
set(actual "${WORK_DIR}/stdout.txt")
if(KIND STREQUAL "JSON")
  set(expected "${WORK_DIR}/expected.unstamped.json")
  set(actual "${WORK_DIR}/out.unstamped.json")
  golden_unstamped("${EXPECTED}" "${expected}")
  golden_unstamped("${WORK_DIR}/out.json" "${actual}")
endif()
set(failures "")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${expected}" "${actual}" RESULT_VARIABLE differs)
if(differs)
  string(APPEND failures "${actual} differs from ${expected}\n")
  find_program(DIFF diff)
  if(DIFF)  # only to show the difference; the verdict is compare_files'
    execute_process(COMMAND ${DIFF} -u "${expected}" "${actual}")
  endif()
endif()

file(READ "${MANIFEST}" manifest)
file(STRINGS "${WORK_DIR}/csv.sha256" written)
foreach(entry IN LISTS written)
  string(FIND "${manifest}" "${entry}\n" at)
  if(at EQUAL -1)
    string(APPEND failures "'${entry}' is not in ${MANIFEST}\n")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "golden mismatch:\n${failures}"
          "If the model changed on purpose, regenerate with "
          "tests/goldens/regen.cmake and review the diff.")
endif()
