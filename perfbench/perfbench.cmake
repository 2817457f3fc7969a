# The repository benchmark, built inside the repository's own CMake
# build. run.py configures the root CMakeLists.txt with
# -DCMAKE_PROJECT_hcm_INCLUDE=<this file>. That includes this file right
# after project(hcm); it defers adding the targets to the end of the root
# CMakeLists.txt, so they see the root's settings (C++ standard, build
# type, warnings, found packages) and link the hcm_* targets exactly as
# src/ defines them.

set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_targets)
    add_library(perfbench_lib STATIC
        ${PERFBENCH_DIR}/harness/common.cc
        ${PERFBENCH_DIR}/harness/layers.cc
        ${PERFBENCH_DIR}/harness/serve.cc
        ${PERFBENCH_DIR}/harness/sweep_run.cc
    )
    target_include_directories(perfbench_lib PUBLIC ${PERFBENCH_DIR}/harness)
    # libhcm_core.a references hcm_plot and hcm_sim, which in turn
    # reference hcm_core, so the archives are linked as one group.
    target_link_libraries(perfbench_lib PUBLIC
        "$<LINK_GROUP:RESCAN,hcm_sweep,hcm_net,hcm_svc,hcm_sim,hcm_hwc,hcm_core,hcm_devices,hcm_itrs,hcm_amdahl,hcm_plot,hcm_workloads,hcm_prof,hcm_obs,hcm_util>"
        Threads::Threads)

    add_executable(perfbench ${PERFBENCH_DIR}/harness/main.cc)
    target_link_libraries(perfbench PRIVATE perfbench_lib)

    # The benchmark's own tests (not needed to run it).
    add_executable(perfbench_tests ${PERFBENCH_DIR}/tests/perfbench_test.cc)
    target_link_libraries(perfbench_tests PRIVATE perfbench_lib
        GTest::gtest GTest::gtest_main)
    target_compile_definitions(perfbench_tests PRIVATE
        PERFBENCH_JSON="${PERFBENCH_DIR}/../BENCHMARK.json")
    add_test(NAME perfbench_tests COMMAND perfbench_tests)

    set_target_properties(perfbench perfbench_tests PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
endfunction()

cmake_language(DEFER CALL perfbench_add_targets)
