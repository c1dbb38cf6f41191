# Build hook of the benchmark. run.py configures the simulator's own
# top-level CMakeLists.txt with
#   -DCMAKE_PROJECT_scalesim3_INCLUDE=<this file>
# so scalesim_cli and scalesim_serve are built exactly as users build
# them, and adds one target, the benchmark's probe, with the same flags.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
function(_perfbench_add_probe)
    add_executable(perfbench_probe ${PERFBENCH_DIR}/probe.cpp)
    target_link_libraries(perfbench_probe PRIVATE scalesim_serve)
endfunction()
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL
    _perfbench_add_probe)
