# check_getenv.cmake — fail when a file under src/ reads the environment
# outside the modules that own it: arch/settings.cpp resolves every LWT_*
# runtime variable, glt/glt.cpp reads GLT_*, and the bench harness
# readers take LWTBENCH_*. Everything else reads arch::Settings.
#
#   cmake -DSRC_DIR=<repo>/src -P tools/check_getenv.cmake
#
# Run by ctest as `getenv_confined`.
cmake_minimum_required(VERSION 3.16)
if(SRC_DIR)
  get_filename_component(SRC_DIR "${SRC_DIR}" ABSOLUTE)
endif()
if(NOT SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "check_getenv: pass -DSRC_DIR=<repo>/src")
endif()

set(allowed
  arch/settings.cpp
  glt/glt.cpp
  benchsupport/harness.cpp
  patterns/patterns.cpp
)

file(GLOB_RECURSE files RELATIVE "${SRC_DIR}" "${SRC_DIR}/*")
set(offenders "")
foreach(f IN LISTS files)
  if(f IN_LIST allowed)
    continue()
  endif()
  file(STRINGS "${SRC_DIR}/${f}" hits REGEX "getenv\\(")
  foreach(line IN LISTS hits)
    string(STRIP "${line}" line)
    string(APPEND offenders "\n  src/${f}: ${line}")
  endforeach()
endforeach()

if(offenders)
  message(FATAL_ERROR
    "getenv( outside the allowed files — read arch::settings() instead:"
    "${offenders}")
endif()
list(LENGTH files n)
message(STATUS "getenv confined to the allowed files (${n} files scanned)")
