# Smoke run of the benchmark probe, registered in bench/CMakeLists.txt:
#
#   cmake -DWMRACE=<wmrace> -DPROBE=<wmbench_probe> -DWORK=<dir>
#         -P probe_smoke.cmake
#
# Generates one small trace and a 4-file corpus with `wmrace
# gen-trace`, then runs `wmbench_probe layers` over them and fails
# unless it exits 0.

foreach(var WMRACE PROBE WORK)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "probe_smoke.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK}/corpus)

set(shape --procs 4 --events 400 --words 1024 --sync-words 32
          --sync-fraction 0.3 --hot-fraction 0.02)

function(gen out seed)
    execute_process(COMMAND ${WMRACE} gen-trace ${out} ${shape}
                            --seed ${seed}
                    OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "gen-trace ${out} exited ${rc}")
    endif()
endfunction()

gen(${WORK}/check.trace 1)
foreach(i 0 1 2 3)
    gen(${WORK}/corpus/c${i}.trace 1${i})
endforeach()

execute_process(COMMAND ${PROBE} layers --out ${WORK}/probe.json
                        --work ${WORK} --corpus ${WORK}/corpus
                        --jobs 2 --uploads 4 ${WORK}/check.trace
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "wmbench_probe layers exited '${rc}'")
endif()
