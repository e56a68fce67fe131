# Rewrites every golden from a built tree:
#
#   cmake -DBUILD_DIR=build -P tests/goldens/regen.cmake
#
# Use it only when a change to the model is meant to move simulated outputs,
# then review the diff under tests/goldens/ and in the BENCH_*.json files.
# The tracked sweep JSONs are rewritten whole, run stamps included. The
# self-test's deliberately wrong expected file is left alone.
cmake_minimum_required(VERSION 3.16)
if(NOT BUILD_DIR)
  message(FATAL_ERROR "usage: cmake -DBUILD_DIR=<build tree> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/golden.cmake)
set(goldens ${CMAKE_CURRENT_LIST_DIR})
get_filename_component(source_dir "${goldens}/../.." ABSOLUTE)
get_filename_component(build_dir "${BUILD_DIR}" ABSOLUTE)
set(manifest "")

function(nistream_golden dir program kind)
  set(args ${ARGN})
  set(work ${build_dir}/goldens-regen/${program})
  if(kind STREQUAL "JSON")
    list(POP_FRONT args json)
  endif()
  message(STATUS "golden: ${program}")
  golden_run("${build_dir}/${dir}/${program}" "${kind}" "${work}" ${args})
  if(kind STREQUAL "JSON")
    configure_file("${work}/out.json" "${source_dir}/${json}" COPYONLY)
  else()
    configure_file("${work}/stdout.txt" "${goldens}/${program}.txt" COPYONLY)
  endif()
  file(READ "${work}/csv.sha256" written)
  set(manifest "${manifest}${written}" PARENT_SCOPE)
endfunction()

include(${goldens}/programs.cmake)
file(WRITE "${goldens}/figures.sha256" "${manifest}")
file(REMOVE_RECURSE "${build_dir}/goldens-regen")
