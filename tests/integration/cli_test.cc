/** @file End-to-end tests of the `hcm` CLI binary (path injected by
 *  CMake as HCM_CLI_PATH; the built bench directory as HCM_BENCH_DIR). */

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

#ifndef HCM_CLI_PATH
#define HCM_CLI_PATH "hcm"
#endif

/** Run a full shell command; returns (exit status, stdout+stderr). */
std::pair<int, std::string>
runShell(const std::string &command)
{
    std::string cmd = "{ " + command + " ; } 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    std::array<char, 4096> buf;
    while (fgets(buf.data(), buf.size(), pipe))
        out += buf.data();
    int status = pclose(pipe);
    return {WEXITSTATUS(status), out};
}

/** Run the CLI with @p args; returns (exit status, stdout+stderr). */
std::pair<int, std::string>
runCli(const std::string &args)
{
    return runShell(std::string(HCM_CLI_PATH) + " " + args);
}

/** Write @p text to @p path (test fixtures). */
void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << text;
}

/** Read all of @p path ("" when missing). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** A small batch request file on disk; returns its path. */
std::string
batchRequestsFile()
{
    std::string path =
        ::testing::TempDir() + "hcm_cli_batch_requests.json";
    writeFile(path, R"({"requests":[
        {"type":"optimize","workload":"fft:1024","f":0.99,"node":22},
        {"type":"optimize","workload":"mmm","f":0.9,"node":22},
        {"type":"energy","workload":"mmm","f":0.9,"node":11}]})");
    return path;
}

TEST(CliTest, HelpPrintsUsage)
{
    auto [code, out] = runCli("help");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("usage: hcm"), std::string::npos);
}

TEST(CliTest, NoArgsShowsHelp)
{
    auto [code, out] = runCli("");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("commands:"), std::string::npos);
}

TEST(CliTest, TableFivePrintsParameters)
{
    auto [code, out] = runCli("table 5");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("U-core parameters"), std::string::npos);
    EXPECT_NE(out.find("GTX285"), std::string::npos);
    EXPECT_NE(out.find("FFT-16384"), std::string::npos);
}

TEST(CliTest, ProjectMmmHighParallelism)
{
    auto [code, out] = runCli("project --workload mmm --f 0.999");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("MMM"), std::string::npos);
    EXPECT_NE(out.find("ASIC"), std::string::npos);
    EXPECT_NE(out.find("(p)"), std::string::npos);
}

// Each legend names every tag its table prints: a thermal-bounded
// scenario's projection keys "(t)", and the scenario study, whose rows
// include the thermal scenarios, keys "(th)".
TEST(CliTest, LimiterLegendsNameThermal)
{
    auto [code, out] = runCli("project --scenario thermal-85c --f 0.99");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find(" (t)"), std::string::npos) << out;
    EXPECT_NE(out.find("limiters: (a) area, (p) power, (b) bandwidth, "
                       "(t) thermal\n"),
              std::string::npos)
        << out;

    auto [base_code, base_out] = runCli("project --f 0.99");
    EXPECT_EQ(base_code, 0) << base_out;
    EXPECT_NE(base_out.find("limiters: (a) area, (p) power, "
                            "(b) bandwidth\n"),
              std::string::npos)
        << base_out;

    auto [s_code, s_out] = runCli("scenarios --f 0.99");
    EXPECT_EQ(s_code, 0) << s_out;
    EXPECT_NE(s_out.find(" (th)"), std::string::npos) << s_out;
    EXPECT_NE(s_out.find("limiters: (ar) area, (po) power, "
                         "(ba) bandwidth, (th) thermal\n"),
              std::string::npos)
        << s_out;
}

TEST(CliTest, OptimizeWithScenario)
{
    auto [code, out] = runCli(
        "optimize --workload fft:1024 --f 0.9 --node 11 "
        "--scenario power-10w");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("Best designs"), std::string::npos);
    EXPECT_NE(out.find("bandwidth"), std::string::npos); // the ASIC row
}

TEST(CliTest, FigureWritesFiles)
{
    auto [code, out] = runCli("figure 8 --out /tmp/hcm_cli_test_out");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("fig8"), std::string::npos);
    FILE *f = fopen("/tmp/hcm_cli_test_out/fig8.csv", "r");
    ASSERT_NE(f, nullptr);
    fclose(f);
}

TEST(CliTest, ListShowsVocabulary)
{
    auto [code, out] = runCli("list");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("bandwidth-1tb"), std::string::npos);
    EXPECT_NE(out.find("V6-LX760"), std::string::npos);
}

TEST(CliTest, StudyNamesAreListedAndAnUnknownOneIsFatal)
{
    auto [code, out] = runCli("list");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("\nstudies: ablation_model crossover "
                       "generation_validation hillmarty_baseline "
                       "mem_traffic mixed_fabric pareto_frontier roofline "
                       "sensitivity sim_validation\n"),
              std::string::npos)
        << out;

    auto [bad, err] = runCli("study nosuch");
    EXPECT_EQ(bad, 1);
    EXPECT_EQ(err.rfind("fatal: no study 'nosuch' (ablation_model, "
                        "crossover, generation_validation, "
                        "hillmarty_baseline, mem_traffic, mixed_fabric, "
                        "pareto_frontier, roofline, sensitivity, "
                        "sim_validation)",
                        0),
              0u)
        << err;

    // A study takes no flags, so it prints the same bytes every run.
    EXPECT_EQ(runCli("study sensitivity --f 0.5").first, 1);
    EXPECT_EQ(runCli("study").first, 1);
}

TEST(CliTest, BadInputsFailCleanly)
{
    EXPECT_EQ(runCli("table 9").first, 1);
    EXPECT_EQ(runCli("project --workload quantum").first, 1);
    EXPECT_EQ(runCli("frobnicate").first, 1);
    EXPECT_NE(runCli("frobnicate").second.find("unknown command"),
              std::string::npos);
    // Regressions: each of these died of an uncaught exception or a
    // model panic (exit 134), or was silently misread.
    // Its own request file: the shared one is rewritten by tests that
    // may run at the same time.
    const std::string batch =
        ::testing::TempDir() + "hcm_cli_bad_inputs.json";
    writeFile(batch, R"([{"type":"optimize","workload":"mmm"}])");
    for (const std::string &args : std::vector<std::string>{
             "optimize --workload fft:",
             "optimize --workload fft:1024abc",
             "optimize --workload fft:128", "optimize --f 1.5",
             "optimize --f abc", "optimize --node 23",
             "optimize --scenario nope", "table x",
             "batch " + batch + " --threads -1",
             "sweep --workloads fft:128", "sweep --fractions nan",
             "sweep --counters",
             // 1e300 ms overflows 64-bit nanoseconds (an undefined
             // cast); a positive value under 1 ns truncated to 0,
             // which means "off".
             "batch " + batch + " --deadline-ms 1e300",
             "batch " + batch + " --deadline-ms 1e-9",
             "batch " + batch + " --slow-query-ms 1e300",
             "batch " + batch + " --slow-query-ms 1e-7",
             "batch " + batch + " --admission-wait-ms 1e300",
             "batch " + batch + " --admission-wait-ms 1e-9",
             // The whole-millisecond flags take the same check: each
             // verb that reads one refuses 1e300 before connecting.
             "loadgen " + batch +
                 " --connect 127.0.0.1:1 --timeout-ms 1e300",
             "top --connect 127.0.0.1:1 --once --timeout-ms 1e300",
             "top --connect 127.0.0.1:1 --interval-ms 1e300",
             "top --connect 127.0.0.1:1 --interval-ms 0.5",
             "front --port 0 --shard-addrs 127.0.0.1:1 --timeout-ms 1e300",
             "front --port 0 --shard-addrs 127.0.0.1:1 "
             "--scrape-interval-ms 1e300",
             "serve --port 0 --shards 2 --scrape-interval-ms 1e300",
             "front --port 0 --shard-addrs 127.0.0.1:1 --timeout-ms -1",
             "loadgen " + batch + " --connect 127.0.0.1:1 --timeout-ms 0.5",
             // Each of these exited 0 having ignored an option: the verb
             // does not read it, or does not in the mode it runs in.
             "optimize --trace-out " + ::testing::TempDir() +
                 "hcm_cli_ignored_trace.json --metrics-out " +
                 ::testing::TempDir() + "hcm_cli_ignored_metrics.json",
             "optimize --energy", "pareto --device asic",
             "crossover --node 11", "project --json --csv",
             "project --csv --energy", "project --json --device asic",
             "table 5 --bogus", "list --bogus",
             "project --threads 8 --port 5 --smoke",
             "roofline --smoke", "roofline --json",
             "roofline --measured --workload mmm",
             "serve --host 127.0.0.1 < /dev/null",
             "serve --scrape-interval-ms 5 < /dev/null",
             "serve --port 0 --scrape-interval-ms 5",
             "top --connect 127.0.0.1:1 --once --interval-ms 5",
             // A negative port used to mean "no TCP" in silence.
             "serve --port -1 < /dev/null", "front --port -1",
             // Each positional argument is counted.
             "table", "table 5 6", "bench-diff " + batch,
             "validate-trace " + batch + " " + batch, "trace-merge",
             "project " + batch}) {
        auto [code, out] = runCli(args);
        EXPECT_EQ(code, 1) << args << "\n" << out;
        EXPECT_EQ(out.rfind("fatal: ", 0), 0u) << args << "\n" << out;
    }
    // A write that fails (a full disk) is an error, like a failed
    // open, on stdout too whichever verb wrote it. Roofline warns about
    // counters before its fatal line.
    if (std::filesystem::exists("/dev/full")) {
        const std::string slice =
            "sweep --workloads mmm --fractions 0.99 --scenarios baseline";
        const std::string trace =
            ::testing::TempDir() + "hcm_cli_bad_inputs_trace.json";
        writeFile(trace, R"({"traceEvents":[]})");
        for (const std::string &args : std::vector<std::string>{
                 slice + " --output /dev/full", slice + " > /dev/full",
                 slice + " --output /dev/null --metrics-out /dev/full",
                 "roofline --measured --smoke --output /dev/full",
                 "trace-merge " + trace + " --output /dev/full",
                 "batch " + batch + " --trace-out /dev/full > /dev/null",
                 "batch " + batch +
                     " --profile-out /dev/full > /dev/null",
                 "table 1 > /dev/full", "batch " + batch + " > /dev/full",
                 "trace-merge " + trace + " > /dev/full",
                 "list > /dev/full"}) {
            auto [code, out] = runCli(args);
            EXPECT_EQ(code, 1) << args << "\n" << out;
            EXPECT_NE(("\n" + out).find("\nfatal: "), std::string::npos)
                << args << "\n" << out;
        }
    }
    // The workload spelling is case-insensitive on every path, and the
    // cache-traffic model takes any power of two.
    EXPECT_EQ(runCli("optimize --workload Fft:1024").first, 0);
    EXPECT_EQ(runCli("traffic --workload fft:2048").first, 0);
}

/** The verbs `hcm help` lists, in its order. */
std::vector<std::string>
helpVerbs()
{
    std::istringstream help(runCli("help").second);
    std::string line;
    while (std::getline(help, line) && line != "commands:") {
    }
    std::vector<std::string> verbs;
    while (std::getline(help, line) && !line.empty())
        if (line.size() > 2 && line[2] != ' ')
            verbs.push_back(line.substr(2, line.find(' ', 2) - 2));
    return verbs;
}

// No verb accepts an option it does not read: one such option per verb
// is refused with a fatal line that names the verb, before it runs.
TEST(CliTest, EveryVerbRefusesAnOptionItDoesNotRead)
{
    const std::string file = batchRequestsFile();
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"table 5", "--f"},
        {"figure 6", "--workload"},
        {"project", "--node"},
        {"sweep", "--workload"},
        {"optimize", "--energy"},
        {"pareto", "--device"},
        {"simulate", "--energy"},
        {"traffic", "--f"},
        {"mixed", "--workload"},
        {"crossover", "--f"},
        {"roofline", "--f"},
        {"scenarios", "--node"},
        {"study sensitivity", "--f"},
        {"batch " + file, "--port"},
        {"serve", "--connect"},
        {"front", "--threads"},
        {"loadgen " + file, "--port"},
        {"top", "--port"},
        {"trace-merge " + file, "--trace-out"},
        {"bench", "--output"},
        {"bench-diff " + file + " " + file, "--smoke"},
        {"validate-trace " + file, "--output"},
        {"list", "--json"},
        {"help", "--verbose"},
    };
    std::vector<std::string> covered;
    for (const auto &[args, option] : cases) {
        std::string verb = args.substr(0, args.find(' '));
        covered.push_back(verb);
        auto [code, out] = runCli(args + " " + option + " < /dev/null");
        EXPECT_EQ(code, 1) << args << " " << option << "\n" << out;
        EXPECT_EQ(out.rfind("fatal: " + verb + " does not take " + option +
                                " (see hcm help)",
                            0),
                  0u)
            << args << " " << option << "\n" << out;
    }
    EXPECT_EQ(covered, helpVerbs());
}

// Every hcm command line in CI, scripts/ and README parses: with an
// unknown option appended, each fails on that option alone, so every
// option before it was one its verb reads. Values stand in for the
// shell variables they use; nothing runs.
TEST(CliTest, DocumentedInvocationsParse)
{
    const std::string fractions = "0.000,0.005,0.010";
    const std::string scenarios =
        "baseline,bandwidth-90,bandwidth-1tb,half-area,power-200w,"
        "power-10w,alpha-2.25,multi-amdahl,thermal-85c,thermal-3d";
    std::vector<std::string> invocations = {
        // .github/workflows/ci.yml
        "table 5",
        "batch obs-smoke/batch.json --threads 8 --trace-out "
        "obs-smoke/trace.json --metrics-out obs-smoke/metrics.json "
        "--metrics-format json",
        "batch obs-smoke/batch.json --threads 8 --metrics-out "
        "obs-smoke/metrics.prom --metrics-format prom",
        "batch obs-smoke/batch.json --threads 8 --profile-out "
        "obs-smoke/batch_profile.txt",
        "validate-trace obs-smoke/trace.json",
        "sweep --workloads mmm --fractions 0.9 --scenarios baseline "
        "--output /dev/null --profile-out obs-smoke/sweep_profile.txt",
        "batch obs-smoke/batch.json --trace-out /dev/full",
        "roofline --measured --smoke --output hwc-smoke/self_roofline.json",
        "sweep --scenarios all --jobs 1",
        "sweep --scenarios all --jobs 8",
        "sweep --scenarios all,power-200w --jobs 8",
        "sweep --workloads mmm --fractions 0.99 --scenarios baseline "
        "--jobs 8",
        "project --workload mmm --f 0.99 --csv",
        "sweep --workloads mmm,bs,fft:1024,fft:16384 --fractions " +
            fractions + " --scenarios " + scenarios + " --jobs 4",
        "sweep --scenarios all --format json",
        "serve --port 0 --shard-id 0 --trace-out "
        "net-smoke/shard0_trace.json",
        "front --port 0 --shard-addrs 127.0.0.1:1,127.0.0.1:2 "
        "--scrape-interval-ms 0 --trace-out net-smoke/front_trace.json",
        "loadgen net-smoke/mix.json --connect 127.0.0.1:1 --concurrency 4 "
        "--trace-out net-smoke/loadgen_trace.json --samples-out "
        "net-smoke/samples.jsonl --output net-smoke/loadgen.json",
        "batch net-smoke/mix.json --results-only",
        "serve --port 0 --shards 2 --threads 1",
        "loadgen net-smoke/mix.json --connect 127.0.0.1:1 --concurrency 4 "
        "--output net-smoke/inproc.json",
        "top --connect 127.0.0.1:1 --once",
        "trace-merge net-smoke/shard0_trace.json "
        "net-smoke/front_trace.json --output net-smoke/merged_trace.json",
        "serve --port 0 --shard-id 0",
        "front --port 0 --shard-addrs 127.0.0.1:1,127.0.0.1:2",
        "loadgen net-smoke/mix.json --connect 127.0.0.1:1 --concurrency 4",
        "bench --smoke --bench-dir build/bench --results "
        "BENCH_RESULTS.json",
        "bench-diff bench/baseline/BENCH_RESULTS.json BENCH_RESULTS.json "
        "--tolerance-pct 400 --min-time-ns 100",
        // scripts/
        "bench --smoke --bench-dir build/bench --results "
        "bench/baseline/BENCH_RESULTS.json",
        "project --workload fft:1024 --f 0.99 --json",
        "figure 6 --out out",
        "scenarios --workload fft:1024 --f 0.9",
        "project --csv --workload fft:1024 --scenario bandwidth-1tb "
        "--f 0.5",
        "list",
        "study crossover",
        "help",
        // README.md
        "project --workload mmm --f 0.999",
        "optimize --workload fft:1024 --f 0.9 --node 11 "
        "--scenario power-10w",
        "pareto --workload mmm --f 0.99 --node 22",
        "simulate --workload mmm --f 0.99 --node 22 --device gtx285",
        "traffic --workload fft:16384 --cache 32",
        "mixed --slot asic:mmm:0.5 --slot gtx285:fft:1024:0.45",
        "scenarios --workload bs --f 0.9",
        "batch requests.json",
        "serve",
        "serve --port 7070 --shards 3",
        "front --port 7071 --shard-addrs host:1,host:2",
        "loadgen mix.json --connect host:7071",
        "top --connect host:7071",
        "trace-merge a.json b.json --output m.json",
        "bench",
        "bench-diff old.json new.json",
        "roofline --measured",
        "sweep",
        "sweep --workloads mmm,fft:16384 --fractions 0.9,0.99 "
        "--scenarios all --jobs 8 --progress --output sweep.csv",
        "sweep --jobs 1",
        "optimize --workload mmm --f 0.99 --node 22 --scenario thermal-85c",
        "sweep --scenarios multi-amdahl,thermal-85c,thermal-3d --jobs 8",
        "loadgen mix.json --connect 127.0.0.1:7071 --rate 200 --repeat 5",
        "batch requests.json --threads 8 --trace-out trace.json",
        "batch requests.json --metrics-out metrics.prom "
        "--metrics-format prom",
        "simulate --workload mmm --f 0.99 --node 22 --device gtx285 "
        "--trace-out sim-trace.json",
        "validate-trace trace.json",
        "batch requests.json --profile-out profile.txt",
        "simulate --workload mmm --f 0.99 --node 22 --device gtx285 "
        "--profile-out sim.json --profile-format json",
        "batch requests.json --slow-query-ms 5",
        "bench-diff old.json new.json --counter-tolerance-pct 10",
        "crossover --scenario multi-amdahl",
        "mixed --slot asic:mmm:0.99 --scenario thermal-85c",
    };
    // The per-scenario pin in ci.yml: four verbs over every scenario.
    for (const char *verb : {"optimize", "project", "pareto", "crossover"})
        invocations.push_back(std::string(verb) +
                              " --workload fft:1024 --scenario thermal-3d");
    for (const std::string &args : invocations) {
        auto [code, out] = runCli(args + " --no-such-option");
        EXPECT_EQ(code, 1) << args << "\n" << out;
        EXPECT_EQ(out.rfind("fatal: unknown option '--no-such-option'", 0),
                  0u)
            << args << "\n" << out;
    }
}

TEST(CliTest, ParetoFrontier)
{
    auto [code, out] = runCli("pareto --workload mmm --f 0.99 --node 22");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("Pareto frontier"), std::string::npos);
    EXPECT_NE(out.find("ASIC"), std::string::npos);
}

TEST(CliTest, SimulateCrossChecksAnalytic)
{
    auto [code, out] = runCli("simulate --workload mmm --f 0.99 "
                              "--node 22 --device gtx285 --chunks 2000");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("analytic speedup"), std::string::npos);
    EXPECT_NE(out.find("simulated speedup"), std::string::npos);
    EXPECT_NE(out.find("tile utilization"), std::string::npos);
}

TEST(CliTest, SimulateRequiresDevice)
{
    auto [code, out] = runCli("simulate --workload mmm --f 0.99");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("--device"), std::string::npos);
}

TEST(CliTest, EnergyFlagSwitchesMetric)
{
    auto [code, out] = runCli("project --workload mmm --f 0.9 --energy");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("Energy"), std::string::npos);
}

TEST(CliTest, JsonProjection)
{
    auto [code, out] = runCli("project --workload fft:1024 --f 0.99 "
                              "--json");
    EXPECT_EQ(code, 0);
    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"workload\":\"FFT-1024\""), std::string::npos);
    EXPECT_NE(out.find("\"speedup\":"), std::string::npos);
}

TEST(CliTest, MixedFabricChip)
{
    auto [code, out] = runCli(
        "mixed --slot asic:mmm:0.5 --slot gtx285:fft:1024:0.45");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("Mixed-fabric chip (partitioned)"),
              std::string::npos);
    EXPECT_NE(out.find("ASIC:MMM"), std::string::npos);
    EXPECT_NE(out.find("GTX285:FFT-1024"), std::string::npos);
    EXPECT_NE(out.find("11nm"), std::string::npos);
}

// hcm mixed keys its slot tags like hcm project: a thermal-bounded
// scenario's ASIC:MMM slot binds the thermal row at 11nm and the legend
// names "(t)"; a non-thermal scenario's legend stops at bandwidth.
TEST(CliTest, MixedLegendNamesThermalOnlyWhenBounded)
{
    auto [code, out] =
        runCli("mixed --slot asic:mmm:0.99 --scenario thermal-85c");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("37.1 BCE (t)"), std::string::npos) << out;
    EXPECT_NE(out.find("+\nlimiters: (a) area, (p) power, (b) bandwidth, "
                       "(t) thermal\n"),
              std::string::npos)
        << out;

    auto [base_code, base_out] = runCli("mixed --slot asic:mmm:0.99");
    EXPECT_EQ(base_code, 0) << base_out;
    EXPECT_EQ(base_out.find("(t)"), std::string::npos) << base_out;
    EXPECT_NE(base_out.find("+\nlimiters: (a) area, (p) power, "
                            "(b) bandwidth\n"),
              std::string::npos)
        << base_out;
}

TEST(CliTest, MixedInfeasibleNodeKeepsTableWidth)
{
    // Regression: an infeasible node's row had 4 cells under a header
    // with one more per slot, which panicked the table (exit 134).
    auto [code, out] = runCli("mixed --slot asic:mmm:0.9 "
                              "--scenario power-10w");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("infeasible"), std::string::npos);
}

TEST(CliTest, MixedRequiresSlots)
{
    auto [code, out] = runCli("mixed");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("--slot"), std::string::npos);
}

/** Expect @p args to exit 1 with one `fatal:` line naming @p why. */
void
expectFatal(const std::string &args, const std::string &why)
{
    auto [code, out] = runCli(args);
    EXPECT_EQ(code, 1) << args << "\n" << out;
    EXPECT_EQ(out.rfind("fatal: ", 0), 0u) << args << "\n" << out;
    EXPECT_NE(out.find(why), std::string::npos) << args << "\n" << out;
}

// Regressions: each bad --slot set below died of a model panic
// (exit 134).
TEST(CliTest, MixedRejectsUncalibratedGpuPair)
{
    expectFatal("mixed --slot gtx480:bs:0.5", "no measurement for GTX480");
}

TEST(CliTest, MixedRejectsUncalibratedFftPair)
{
    expectFatal("mixed --slot r5870:fft:1024:0.5",
                "no measurement for R5870");
}

TEST(CliTest, MixedRejectsFractionOutsideUnitInterval)
{
    expectFatal("mixed --slot asic:mmm:-0.5", "outside [0, 1]");
}

TEST(CliTest, MixedRejectsFractionsSummingPastOne)
{
    expectFatal("mixed --slot asic:mmm:0.7 --slot gtx480:fft:1024:0.7",
                "sum to 1.4 > 1");
}

TEST(CliTest, MixedRejectsASegmentProfile)
{
    // Regression: the profile was silently dropped, so the table was
    // the baseline's.
    expectFatal("mixed --slot asic:mmm:0.5 --scenario multi-amdahl",
                "mixed takes its phases from --slot");
}

TEST(CliTest, CrossoverRejectsBadTarget)
{
    // Regression: --target -1 printed "HET >= -1x the best CMP" over a
    // table of 0.000.
    for (const char *target : {"-1", "0", "-0"})
        expectFatal(std::string("crossover --target ") + target,
                    "--target must be finite and > 0");
    for (const char *target : {"inf", "nan"})
        expectFatal(std::string("crossover --target ") + target,
                    "--target");
}

TEST(CliTest, CrossoverTable)
{
    auto [code, out] = runCli(
        "crossover --workload fft:1024 --target 1.5");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("Minimum f"), std::string::npos);
    EXPECT_NE(out.find("ASIC"), std::string::npos);
    EXPECT_NE(out.find("0."), std::string::npos);
}

TEST(CliTest, RooflineTable)
{
    auto [code, out] = runCli("roofline --workload mmm");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("ridge"), std::string::npos);
    EXPECT_NE(out.find("yes"), std::string::npos);
}

TEST(CliTest, TrafficMeasurement)
{
    auto [code, out] = runCli("traffic --workload fft:1024 --cache 64");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("compulsory"), std::string::npos);
    EXPECT_NE(out.find("working set"), std::string::npos);
}

TEST(CliTest, BatchProfileOutEmitsInstrumentedCallSites)
{
    std::string requests = batchRequestsFile();
    std::string profile = ::testing::TempDir() + "hcm_cli_profile.txt";
    auto [code, out] = runCli("batch " + requests + " --profile-out " +
                              profile);
    EXPECT_EQ(code, 0) << out;
    std::string text = readFile(profile);
    // Collapsed-stack roots mirror the engine's instrumentation: the
    // submitting thread's svc.batch -> svc.query nesting and the
    // worker-side svc.eval root.
    EXPECT_NE(text.find("svc.batch;svc.query"), std::string::npos)
        << text;
    EXPECT_NE(text.find("svc.eval"), std::string::npos) << text;
    // Every line is "path <self_ns>".
    std::istringstream lines(text);
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ++count;
        EXPECT_NE(line.find_last_of(' '), std::string::npos) << line;
    }
    EXPECT_GT(count, 0u);
}

TEST(CliTest, BatchProfileJsonFormat)
{
    std::string requests = batchRequestsFile();
    std::string profile = ::testing::TempDir() + "hcm_cli_profile.json";
    auto [code, out] = runCli("batch " + requests +
                              " --profile-out " + profile +
                              " --profile-format json");
    EXPECT_EQ(code, 0) << out;
    std::string text = readFile(profile);
    EXPECT_EQ(text.front(), '{') << text;
    EXPECT_NE(text.find("\"roots\":"), std::string::npos) << text;
    EXPECT_NE(text.find("\"name\":\"svc.batch\""), std::string::npos)
        << text;
    EXPECT_EQ(runCli("batch " + requests +
                     " --profile-out /tmp/x --profile-format bogus")
                  .first,
              1);
}

TEST(CliTest, SimulateProfileOutCoversSimulatorScopes)
{
    std::string profile = ::testing::TempDir() + "hcm_cli_sim_prof.txt";
    auto [code, out] =
        runCli("simulate --workload mmm --f 0.99 --node 22 "
               "--device gtx285 --chunks 500 --profile-out " +
               profile);
    EXPECT_EQ(code, 0) << out;
    std::string text = readFile(profile);
    EXPECT_NE(text.find("sim.run;sim.phase"), std::string::npos)
        << text;
}

TEST(CliTest, SweepProfileOutCoversSweepScopes)
{
    const std::string slice = "sweep --workloads mmm --fractions 0.9 "
                              "--scenarios baseline --output /dev/null";
    std::string profile =
        ::testing::TempDir() + "hcm_cli_sweep_prof.txt";
    // Serial: every unit nests under the run on one thread.
    auto [code, out] =
        runCli(slice + " --jobs 1 --profile-out " + profile);
    EXPECT_EQ(code, 0) << out;
    std::string text = readFile(profile);
    EXPECT_NE(text.find("sweep.run;sweep.unit "), std::string::npos)
        << text;
    // Pooled: units are roots on the worker threads.
    auto [code2, out2] =
        runCli(slice + " --jobs 2 --profile-out " + profile);
    EXPECT_EQ(code2, 0) << out2;
    text = readFile(profile);
    EXPECT_NE(text.find("sweep.unit "), std::string::npos) << text;
    EXPECT_NE(text.find("sweep.run"), std::string::npos) << text;
}

// --metrics-out writes the engine's part, when a query engine ran,
// and then the process registry's. JSON is {"svc":…,"process":…} plus
// a newline, with no "svc" member without an engine; the "svc"
// document is the one `hcm batch` prints as its "metrics" member.
// Prometheus is the engine's series, through hcm_svc_cache_capacity,
// then the process registry's, which opens with hcm_build_info.
TEST(CliTest, MetricsOutWritesEngineThenProcessPayloads)
{
    const std::string dir = ::testing::TempDir();
    const std::string stdout_path = dir + "hcm_cli_metrics_stdout.json";
    const std::string json_path = dir + "hcm_cli_metrics.json";
    const std::string prom_path = dir + "hcm_cli_metrics.prom";
    const std::string process_prom = "# TYPE hcm_build_info gauge\n";
    auto expectProcessJson = [](const std::string &doc) {
        EXPECT_EQ(doc.rfind("{\"counters\":[", 0), 0u) << doc;
        EXPECT_NE(doc.find("],\"gauges\":["), std::string::npos) << doc;
        EXPECT_NE(doc.find("],\"histograms\":["), std::string::npos)
            << doc;
    };

    const std::string batch = "batch " + batchRequestsFile();
    auto [code, out] = runCli(batch + " --metrics-out " + json_path +
                              " > " + stdout_path);
    ASSERT_EQ(code, 0) << out;
    std::string printed = readFile(stdout_path);
    std::size_t at = printed.rfind(",\"metrics\":{");
    ASSERT_NE(at, std::string::npos) << printed;
    std::string svc_doc = printed.substr(at + 11, printed.size() - at - 13);
    ASSERT_EQ(printed.substr(printed.size() - 2), "}\n");
    std::string file = readFile(json_path);
    std::string head = "{\"svc\":" + svc_doc + ",\"process\":";
    ASSERT_EQ(file.rfind(head, 0), 0u) << file;
    ASSERT_EQ(file.substr(file.size() - 3), "}}\n");
    expectProcessJson(
        file.substr(head.size(), file.size() - head.size() - 2));

    auto [prom_code, prom_out] =
        runCli(batch + " --metrics-format prom --metrics-out " +
               prom_path + " > /dev/null");
    ASSERT_EQ(prom_code, 0) << prom_out;
    std::string prom = readFile(prom_path);
    EXPECT_EQ(prom.rfind("# TYPE hcm_svc_queries_total counter\n", 0), 0u)
        << prom;
    std::size_t process_at = prom.find(process_prom);
    ASSERT_NE(process_at, std::string::npos) << prom;
    const std::string last_svc = "\nhcm_svc_cache_capacity 4096\n";
    EXPECT_EQ(prom.rfind(last_svc, process_at),
              process_at - last_svc.size())
        << prom;
    EXPECT_EQ(prom.find("hcm_svc_", process_at), std::string::npos);
    EXPECT_EQ(prom.back(), '\n');

    const std::string sweep = "sweep --workloads mmm --fractions 0.99 "
                              "--scenarios baseline --output /dev/null";
    auto [sweep_code, sweep_out] =
        runCli(sweep + " --metrics-out " + json_path);
    ASSERT_EQ(sweep_code, 0) << sweep_out;
    file = readFile(json_path);
    ASSERT_EQ(file.rfind("{\"process\":", 0), 0u) << file;
    ASSERT_EQ(file.substr(file.size() - 3), "}}\n");
    expectProcessJson(file.substr(11, file.size() - 13));

    auto [sweep_prom_code, sweep_prom_out] = runCli(
        sweep + " --metrics-format prom --metrics-out " + prom_path);
    ASSERT_EQ(sweep_prom_code, 0) << sweep_prom_out;
    prom = readFile(prom_path);
    EXPECT_EQ(prom.rfind(process_prom, 0), 0u) << prom;
    EXPECT_EQ(prom.find("hcm_svc_"), std::string::npos) << prom;
}

TEST(CliTest, SlowQueryLogCountsAndWarns)
{
    std::string requests = batchRequestsFile();
    // 1ns threshold: every query in the batch is slow.
    auto [code, out] =
        runCli("batch " + requests + " --slow-query-ms 0.000001");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("slow query"), std::string::npos) << out;
    EXPECT_NE(out.find("evalMs="), std::string::npos) << out;
    EXPECT_EQ(out.find("\"slowQueries\":0,"), std::string::npos) << out;
    // Without the flag nothing is flagged.
    auto [code2, out2] = runCli("batch " + requests);
    EXPECT_EQ(code2, 0);
    EXPECT_EQ(out2.find("slow query"), std::string::npos) << out2;
    EXPECT_NE(out2.find("\"slowQueries\":0,"), std::string::npos)
        << out2;
}

TEST(CliTest, VerboseStepsThroughLevels)
{
    std::string requests = batchRequestsFile();
    // batch: base Info; one --verbose reaches Debug.
    auto [code, quiet_out] = runCli("batch " + requests);
    EXPECT_EQ(code, 0);
    EXPECT_EQ(quiet_out.find("debug:"), std::string::npos) << quiet_out;
    auto [vcode, verbose_out] = runCli("batch " + requests + " --verbose");
    EXPECT_EQ(vcode, 0);
    EXPECT_NE(verbose_out.find("debug: batch served"),
              std::string::npos)
        << verbose_out;
    // serve: base Warn; the first --verbose only reaches Info.
    std::string serve = std::string("echo '' | ") + HCM_CLI_PATH +
                        " serve";
    EXPECT_EQ(runShell(serve).second.find("info:"), std::string::npos);
    std::string one = runShell(serve + " --verbose").second;
    EXPECT_NE(one.find("info: serve session ended"), std::string::npos)
        << one;
    EXPECT_EQ(one.find("debug:"), std::string::npos) << one;
}

TEST(CliTest, ServeMetricsVerbSupportsPromFormat)
{
    std::string cmd =
        std::string("printf '%s\\n' "
                    "'{\"type\":\"optimize\",\"workload\":\"mmm\","
                    "\"f\":0.9,\"node\":22}' "
                    "'{\"type\":\"metrics\",\"format\":\"prom\"}' | ") +
        HCM_CLI_PATH + " serve";
    auto [code, out] = runShell(cmd);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("# TYPE hcm_svc_queries_total counter"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("hcm_svc_queries_total{type=\"optimize\"} 1"),
              std::string::npos)
        << out;
    // The process-wide registry rides along, led by the build gauge.
    EXPECT_NE(out.find("hcm_build_info{version="), std::string::npos)
        << out;
    // An unknown format is a one-line error, not a dead session.
    auto [bad_code, bad_out] = runShell(
        std::string("echo '{\"type\":\"metrics\",\"format\":\"xml\"}'"
                    " | ") +
        HCM_CLI_PATH + " serve");
    EXPECT_EQ(bad_code, 0);
    EXPECT_NE(bad_out.find("metrics format must be json or prom"),
              std::string::npos)
        << bad_out;
}

// Regression: without --port, serve --shards N answered from one
// engine on stdin and never said so.
TEST(CliTest, ServeShardsNeedsPort)
{
    expectFatal("serve --shards 2 < /dev/null", "--shards 2 needs --port");
    auto [code, out] = runCli("serve --shards 1 < /dev/null");
    EXPECT_EQ(code, 0) << out;
}

// --cache-entries 0 is how to serve without the answer cache.
TEST(CliTest, CacheEntriesZeroDisablesTheCache)
{
    auto [code, out] = runShell(
        std::string("echo '{\"type\":\"metrics\"}' | ") + HCM_CLI_PATH +
        " serve --cache-entries 0");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("\"capacity\":0"), std::string::npos) << out;
    auto [bad_code, bad_out] = runCli("serve --no-cache < /dev/null");
    EXPECT_EQ(bad_code, 1) << bad_out;
    EXPECT_NE(bad_out.find("unknown option '--no-cache'"),
              std::string::npos)
        << bad_out;
}

// The acceptance path for the lifecycle fix, end to end: a throwing
// evaluation answers with a structured error line instead of hanging
// the serve loop, and the very next identical query evaluates fine.
TEST(CliTest, ServeRecoversFromInjectedEvaluationFailure)
{
    std::string query =
        "'{\"type\":\"optimize\",\"workload\":\"mmm\","
        "\"f\":0.9,\"node\":22}'";
    std::string cmd = std::string("printf '%s\\n' ") + query + " " +
                      query + " | " + HCM_CLI_PATH +
                      " serve --fault-spec eval:throw=boom:nth=1";
    auto [code, out] = runShell(cmd);
    EXPECT_EQ(code, 0) << out;
    std::istringstream lines(out);
    std::string first, second;
    // Skip log lines (the fault-armed warning, eval-failed warning).
    while (std::getline(lines, first) &&
           (first.empty() || first[0] != '{')) {
    }
    while (std::getline(lines, second) &&
           (second.empty() || second[0] != '{')) {
    }
    EXPECT_NE(first.find("\"error\":\"boom\""), std::string::npos)
        << out;
    EXPECT_NE(first.find("\"type\":\"evaluation_failed\""),
              std::string::npos)
        << out;
    EXPECT_NE(second.find("\"rows\":"), std::string::npos) << out;
}

TEST(CliTest, BatchRendersInjectedErrorInOrder)
{
    std::string requests = batchRequestsFile();
    auto [code, out] = runCli("batch " + requests +
                              " --fault-spec eval:throw:nth=1");
    EXPECT_EQ(code, 0) << out;
    // One error object inside the results array, sibling results fine,
    // and the failure surfaced in the batch metrics document.
    EXPECT_NE(out.find("\"type\":\"evaluation_failed\""),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"rows\":"), std::string::npos) << out;
    EXPECT_NE(out.find("\"errors\":1,"), std::string::npos) << out;
}

TEST(CliTest, DeadlineFlagShedsSlowQueries)
{
    std::string query =
        "'{\"type\":\"optimize\",\"workload\":\"mmm\","
        "\"f\":0.9,\"node\":22}'";
    std::string cmd = std::string("printf '%s\\n' ") + query + " | " +
                      HCM_CLI_PATH +
                      " serve --deadline-ms 5 --fault-spec eval:delay=60";
    auto [code, out] = runShell(cmd);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("\"type\":\"deadline_exceeded\""),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("\"rows\":"), std::string::npos) << out;
}

TEST(CliTest, BadFaultSpecFailsFast)
{
    auto [code, out] = runCli("serve --fault-spec eval:frobnicate");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("unknown fault action"), std::string::npos)
        << out;
}

TEST(CliTest, ServeProfileVerbReturnsJsonTree)
{
    std::string cmd =
        std::string("printf '%s\\n' "
                    "'{\"type\":\"optimize\",\"workload\":\"mmm\","
                    "\"f\":0.9,\"node\":22}' "
                    "'{\"type\":\"profile\"}' | ") +
        HCM_CLI_PATH + " serve --profile-out /dev/null";
    auto [code, out] = runShell(cmd);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("\"enabled\":true"), std::string::npos) << out;
    EXPECT_NE(out.find("\"name\":\"svc.query\""), std::string::npos)
        << out;
}

#ifdef HCM_BENCH_DIR
TEST(CliTest, BenchSmokeProducesSchemaValidResults)
{
    std::string results = ::testing::TempDir() + "hcm_cli_bench.json";
    auto [code, out] = runCli(std::string("bench --smoke --only "
                                          "bench_obs --bench-dir ") +
                              HCM_BENCH_DIR + " --results " + results);
    EXPECT_EQ(code, 0) << out;
    std::string text = readFile(results);
    EXPECT_NE(text.find("\"schema\":\"hcm-bench-results/v2\""),
              std::string::npos)
        << text;
    // v2 always records what the host offered, available or not.
    EXPECT_NE(text.find("\"counters\":{\"available\":"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"perfEventParanoid\":"), std::string::npos);
    EXPECT_NE(text.find("\"smoke\":true"), std::string::npos);
    EXPECT_NE(text.find("\"binary\":\"bench_obs\""), std::string::npos);
    EXPECT_NE(text.find("\"realTimeNs\":"), std::string::npos);
    // The results file feeds bench-diff: identical inputs pass.
    EXPECT_EQ(runCli("bench-diff " + results + " " + results).first, 0);
}
#endif

TEST(CliTest, BenchDiffGatesOnSyntheticSlowdown)
{
    auto results = [](double ns) {
        std::ostringstream doc;
        doc << R"({"schema":"hcm-bench-results/v1","smoke":true,)"
            << R"("build":{},"host":{},"failures":[],)"
            << R"("suites":[{"binary":"bench_x","benchmarks":[)"
            << R"({"name":"BM_A","realTimeNs":)" << ns
            << R"(,"iterations":10,"repetition":0}]}]})";
        return doc.str();
    };
    std::string old_path = ::testing::TempDir() + "hcm_bench_old.json";
    std::string new_path = ::testing::TempDir() + "hcm_bench_new.json";
    writeFile(old_path, results(100.0));
    writeFile(new_path, results(200.0)); // synthetic 2x slowdown

    auto [same, same_out] =
        runCli("bench-diff " + old_path + " " + old_path);
    EXPECT_EQ(same, 0) << same_out;
    EXPECT_NE(same_out.find("0 regression(s)"), std::string::npos);

    auto [slow, slow_out] =
        runCli("bench-diff " + old_path + " " + new_path);
    EXPECT_EQ(slow, 1) << slow_out;
    EXPECT_NE(slow_out.find("REGRESSION"), std::string::npos);
    EXPECT_NE(slow_out.find("bench_x:BM_A"), std::string::npos);

    // A generous tolerance waves the same delta through.
    EXPECT_EQ(runCli("bench-diff " + old_path + " " + new_path +
                     " --tolerance-pct 900")
                  .first,
              0);
    // The floor mutes sub-threshold noise entirely.
    EXPECT_EQ(runCli("bench-diff " + old_path + " " + new_path +
                     " --min-time-ns 1000")
                  .first,
              0);
}

TEST(CliTest, BenchDiffRejectsNonResultsFiles)
{
    std::string bogus = ::testing::TempDir() + "hcm_bench_bogus.json";
    writeFile(bogus, R"({"schema":"other"})");
    auto [code, out] = runCli("bench-diff " + bogus + " " + bogus);
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("schema"), std::string::npos) << out;
}

TEST(CliTest, BenchRequiresAManifest)
{
    auto [code, out] =
        runCli("bench --bench-dir /nonexistent-dir-xyz");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("cannot open"), std::string::npos) << out;
}

} // namespace
