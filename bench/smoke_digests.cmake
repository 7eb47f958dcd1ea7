# Run a grid driver at its smoke span and check each JSONL record
# against a committed SHA-256 digest, keyed by cell id
# (experiment|workload|scheme), so a failure names the cells that moved.
#
# Check (the <driver>_smoke ctest):
#   cmake -DDRIVER=<exe> -DDIGESTS=<file> -DOUT=<jsonl> -P smoke_digests.cmake
# Regenerate (the only way the digest files are written; name each
# regeneration and its reason in CHANGES.md):
#   cmake -DDRIVER=build/bench/fig8_overhead \
#         -DDIGESTS=bench/digests/fig8_overhead.sha256 \
#         -DOUT=fig8.jsonl -DUPDATE=ON -P bench/smoke_digests.cmake
# and the same for fig9_scalability.

cmake_minimum_required(VERSION 3.16)

foreach(var DRIVER DIGESTS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "smoke_digests: -D${var}=... is required")
    endif()
endforeach()

execute_process(
    COMMAND "${DRIVER}" --windows 0.002 --jobs 2 --no-progress
            --json "${OUT}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smoke_digests: ${DRIVER} exited with ${rc}")
endif()

# One "<sha256> <cell id>" line per record, in record order. The file
# is read by offsets rather than as a CMake list: records hold
# brackets, which list splitting does not treat as plain text.
file(READ "${OUT}" records)
set(got "")
string(LENGTH "${records}" left)
while(left GREATER 0)
    string(FIND "${records}" "\n" eol)
    if(eol EQUAL -1)
        message(FATAL_ERROR "smoke_digests: ${OUT} ends without a newline")
    endif()
    string(SUBSTRING "${records}" 0 ${eol} record)
    math(EXPR next "${eol} + 1")
    string(SUBSTRING "${records}" ${next} -1 records)
    string(LENGTH "${records}" left)
    if(NOT record MATCHES
       "^{\"experiment\":\"([^\"]*)\",\"workload\":\"([^\"]*)\",\"scheme\":\"([^\"]*)\"")
        message(FATAL_ERROR "smoke_digests: record without a cell id: ${record}")
    endif()
    set(id "${CMAKE_MATCH_1}|${CMAKE_MATCH_2}|${CMAKE_MATCH_3}")
    string(SHA256 digest "${record}")
    string(APPEND got "${digest} ${id}\n")
endwhile()

if(UPDATE)
    file(WRITE "${DIGESTS}" "${got}")
    message(STATUS "smoke_digests: wrote ${DIGESTS}")
    return()
endif()

file(READ "${DIGESTS}" want)
if(got STREQUAL want)
    return()
endif()

# Name every cell whose digest moved, appeared or disappeared.
string(REPLACE "\n" ";" got_lines "${got}")
string(REPLACE "\n" ";" want_lines "${want}")
set(report "")
foreach(line IN LISTS want_lines)
    if(line AND NOT line IN_LIST got_lines)
        string(APPEND report "\n  expected: ${line}")
    endif()
endforeach()
foreach(line IN LISTS got_lines)
    if(line AND NOT line IN_LIST want_lines)
        string(APPEND report "\n  got:      ${line}")
    endif()
endforeach()
if(report STREQUAL "")
    set(report "\n  the same records in another order")
endif()
message(FATAL_ERROR
    "smoke_digests: ${OUT} differs from ${DIGESTS}:${report}")
