# Golden-report comparison, run by CTest (see tests/CMakeLists.txt):
#
#   cmake -DWMRACE=<tool> -DTRACE=<file> -DOUT=<file> -DSALVAGE=0|1
#         [-DSTREAM=0|1] [-DENGINE=<sel>]
#         (-DEXPECTED=<file> | -DVERSUS_WHOLE=1)
#         -P golden_check.cmake
#
# Runs `wmrace check [--salvage] [--engine SEL] [--stream] TRACE`,
# captures stdout,
# and compares it byte for byte with the committed EXPECTED report.
# STREAM=1 routes the same trace through the bounded-memory streaming
# engine, which must render the identical bytes the whole-trace
# pipeline blessed.  ENGINE selects a detector-family report
# (per-engine verdict blocks + containment summary) instead of the
# canonical hb1 report.  VERSUS_WHOLE=1 (with STREAM=1) compares
# against the same command without --stream instead of a committed
# file: stdout bytes and exit code must both match.  Any
# drift — a reworded line, a changed count, a reordered partition —
# fails the test; intentional changes are re-blessed with
# tests/data/golden/regen.sh.

foreach(var WMRACE TRACE OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden_check.cmake: ${var} not set")
    endif()
endforeach()
if(NOT VERSUS_WHOLE AND NOT DEFINED EXPECTED)
    message(FATAL_ERROR "golden_check.cmake: EXPECTED not set")
endif()

set(args check ${TRACE})
if(SALVAGE)
    list(APPEND args --salvage)
endif()
if(DEFINED ENGINE)
    list(APPEND args --engine ${ENGINE})
endif()
set(wholeArgs ${args})
if(STREAM)
    list(APPEND args --stream)
endif()

execute_process(COMMAND ${WMRACE} ${args}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
# `check` exits 0 (clean) or 1 (data races found); both are valid
# golden outcomes.  Anything else is a tool failure.
if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR
            "wmrace ${args} exited '${rc}' (expected 0 or 1)")
endif()

if(VERSUS_WHOLE)
    set(EXPECTED ${OUT}.whole)
    execute_process(COMMAND ${WMRACE} ${wholeArgs}
                    OUTPUT_FILE ${EXPECTED}
                    RESULT_VARIABLE wholeRc)
    if(NOT rc STREQUAL wholeRc)
        message(FATAL_ERROR
                "wmrace ${args} exited '${rc}' but wmrace "
                "${wholeArgs} exited '${wholeRc}'")
    endif()
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT} ${EXPECTED}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    execute_process(COMMAND ${CMAKE_COMMAND} -E echo
                    "--- got (${OUT}) ---")
    file(READ ${OUT} got)
    message(STATUS "${got}")
    message(FATAL_ERROR
            "report differs from golden ${EXPECTED}.  If the change "
            "is intentional, re-bless with tests/data/golden/regen.sh "
            "and review the diff.")
endif()
