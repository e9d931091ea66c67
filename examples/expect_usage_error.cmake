# Runs BIN with one argument ARG and passes only if it exits 2 with a
# usage line on stderr and nothing on stdout (it rejected the argument
# before doing any work).
#
#   cmake -DBIN=<program> -DARG=<argument> -P expect_usage_error.cmake
execute_process(COMMAND "${BIN}" "${ARG}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "'${ARG}': expected exit 2, got ${rc}\n${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "'${ARG}': no usage line on stderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "'${ARG}': unexpected stdout: ${out}")
endif()
