# Run one command and check how it ended (see wmr_cli_expect in
# tests/CMakeLists.txt):
#
#   cmake -DEXIT=<code> -DOUT=<file> [-DSTDERR=<regex>]
#         [-DSTDOUT=<file>] -P cli_expect.cmake -- <command> [args...]
#
# Fails unless the command exits with EXIT and, when given, its
# stderr matches the regular expression STDERR and its stdout (kept in
# OUT) equals the file STDOUT byte for byte.  PASS_REGULAR_EXPRESSION
# cannot do this: a matching output passes whatever the exit status.
# The command is killed after 60 s, so a daemon that should have
# refused to start fails the test instead of hanging it.

foreach(var EXIT OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_expect.cmake: ${var} not set")
    endif()
endforeach()

set(cmd)
set(after_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_dashes ON)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "cli_expect.cmake: no command after --")
endif()

get_filename_component(out_dir ${OUT} DIRECTORY)
file(MAKE_DIRECTORY ${out_dir})
execute_process(COMMAND ${cmd}
                OUTPUT_FILE ${OUT}
                ERROR_VARIABLE err
                RESULT_VARIABLE rc
                TIMEOUT 60)
message(STATUS "stderr:\n${err}")
if(NOT rc STREQUAL EXIT)
    message(FATAL_ERROR "exited '${rc}', expected ${EXIT}")
endif()
if(DEFINED STDERR AND NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "stderr does not match '${STDERR}'")
endif()
if(DEFINED STDOUT)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${OUT} ${STDOUT}
                    RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "stdout (${OUT}) differs from ${STDOUT}")
    endif()
endif()
