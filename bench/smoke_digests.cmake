# Run a driver at its smoke span and check what it writes against
# committed SHA-256 digests, so a failure names what moved.
#
# Two kinds of output are digested:
#   - records (the default): a grid driver's JSONL, one digest per
#     record keyed by cell id (experiment|workload|scheme);
#   - files (-DFILES=...): every file in the output directory OUT that
#     matches one of the space-separated globs in FILES, one digest
#     per file keyed by its path under OUT. The driver runs with the
#     space-separated ARGS plus `--out OUT`; OUT is emptied first.
#     ABSENT names files that must not be written at all.
#
# Check (the <driver>_smoke ctests):
#   cmake -DDRIVER=<exe> -DDIGESTS=<file> -DOUT=<jsonl> -P smoke_digests.cmake
#   cmake -DDRIVER=<exe> -DDIGESTS=<file> -DOUT=<dir> -DARGS="..." \
#         -DFILES="..." [-DABSENT="..."] -P smoke_digests.cmake
# Regenerate (the only way the digest files are written; name each
# regeneration and its reason in CHANGES.md): the same command with
# -DUPDATE=ON, for example
#   cmake -DDRIVER=build/bench/fig8_overhead \
#         -DDIGESTS=bench/digests/fig8_overhead.sha256 \
#         -DOUT=fig8.jsonl -DUPDATE=ON -P bench/smoke_digests.cmake
# and the same for fig9_scalability; `ctest -R serve_smoke -V` prints
# the serve smoke's full command line.

cmake_minimum_required(VERSION 3.16)

foreach(var DRIVER DIGESTS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "smoke_digests: -D${var}=... is required")
    endif()
endforeach()

set(got "")
if(DEFINED FILES)
    separate_arguments(args UNIX_COMMAND "${ARGS}")
    separate_arguments(globs UNIX_COMMAND "${FILES}")
    separate_arguments(absent UNIX_COMMAND "${ABSENT}")
    file(REMOVE_RECURSE "${OUT}")
    execute_process(
        COMMAND "${DRIVER}" ${args} --out "${OUT}"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "smoke_digests: ${DRIVER} exited with ${rc}")
    endif()
    foreach(name IN LISTS absent)
        if(EXISTS "${OUT}/${name}")
            message(FATAL_ERROR "smoke_digests: ${OUT}/${name} must not exist")
        endif()
    endforeach()
    # One "<sha256> <path under OUT>" line per file, in path order.
    set(names "")
    foreach(glob IN LISTS globs)
        file(GLOB matched RELATIVE "${OUT}" "${OUT}/${glob}")
        list(APPEND names ${matched})
    endforeach()
    list(REMOVE_DUPLICATES names)
    list(SORT names)
    foreach(name IN LISTS names)
        file(SHA256 "${OUT}/${name}" digest)
        string(APPEND got "${digest} ${name}\n")
    endforeach()
else()
    execute_process(
        COMMAND "${DRIVER}" --windows 0.002 --jobs 2 --no-progress
                --json "${OUT}"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "smoke_digests: ${DRIVER} exited with ${rc}")
    endif()

    # One "<sha256> <cell id>" line per record, in record order. The
    # file is read by offsets rather than as a CMake list: records
    # hold brackets, which list splitting does not treat as plain
    # text.
    file(READ "${OUT}" records)
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
endif()

if(UPDATE)
    file(WRITE "${DIGESTS}" "${got}")
    message(STATUS "smoke_digests: wrote ${DIGESTS}")
    return()
endif()

file(READ "${DIGESTS}" want)
if(got STREQUAL want)
    return()
endif()

# Name every cell or file whose digest moved, appeared or disappeared.
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
