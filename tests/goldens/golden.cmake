# Shared by compare.cmake (one ctest case) and regen.cmake (rewrite every
# golden): run one pinned program exactly as its test runs it.
#
#   golden_run(<program> <kind> <work_dir> [args...])
#
# The program runs in a fresh <work_dir> with NISTREAM_CSV_DIR=., must exit
# 0, and leaves its stdout in stdout.txt there. csv.sha256 lists the plot
# series it wrote (only the Figure 6-10 benches write any) in `sha256sum`
# format. A JSON-kind program also writes out.json (`--jobs=4 --out`).
function(golden_run program kind work_dir)
  get_filename_component(program "${program}" ABSOLUTE)
  file(REMOVE_RECURSE "${work_dir}")
  file(MAKE_DIRECTORY "${work_dir}")
  set(args ${ARGN})
  if(kind STREQUAL "JSON")
    list(APPEND args --jobs=4 --out "${work_dir}/out.json")
  endif()
  set(ENV{NISTREAM_CSV_DIR} ".")
  execute_process(COMMAND "${program}" ${args}
    WORKING_DIRECTORY "${work_dir}"
    OUTPUT_FILE "${work_dir}/stdout.txt"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(JOIN args " " args)
    message(FATAL_ERROR "${program} ${args}: exit status '${rc}', want 0")
  endif()
  file(GLOB csvs RELATIVE "${work_dir}" "${work_dir}/*.csv")
  list(SORT csvs)
  set(manifest "")
  foreach(csv IN LISTS csvs)
    file(SHA256 "${work_dir}/${csv}" hash)
    string(APPEND manifest "${hash}  ${csv}\n")
  endforeach()
  file(WRITE "${work_dir}/csv.sha256" "${manifest}")
endfunction()

# Copy a sweep JSON without its run stamps: the "jobs" and "git_rev" lines
# depend on how and where it ran, not on the model.
function(golden_unstamped from to)
  file(READ "${from}" text)
  string(REGEX REPLACE "[^\n]*\"(jobs|git_rev)\"[^\n]*\n" "" text "${text}")
  file(WRITE "${to}" "${text}")
endfunction()
