/**
 * @file
 * perfbench: the repository benchmark. One process runs one workload:
 *
 *   perfbench --workload serve-hot|serve-cold --seed N --seconds S
 *             --trace 0|1 [--git-sha SHA]
 *
 * --trace 0 measures the end-to-end metrics: set-up, an open-loop phase
 * for five sixths of the time, a closed-loop phase for the rest. --trace 1
 * repeats shorter phases, then times each layer on its own (the
 * per-layer replay) and runs the dense sweep. Either way every answer is
 * checked against the oracle, human-readable lines come first, and the
 * last line is the JSON result. The exit code is 0 only when every
 * output matched and every metric was measured.
 *
 *   perfbench --hash-file FILE
 *
 * prints the digest the sweep oracle compares (used to record it).
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "layers.hh"
#include "obs/build_info.hh"
#include "serve.hh"
#include "sweep_run.hh"

namespace perfbench {
namespace {

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kServeSetups = 9;
/**
 * Requests the traced run replays through each layer: more than one
 * engine's 4096 cache entries, so serve-cold's replay evicts.
 */
constexpr std::size_t kReplayRequests = 5000;
/** Dense sweeps per traced run. */
constexpr int kTracedSweeps = 2;

/**
 * Measured in every untraced run and printed, but not bounded: on a
 * shared VM their run-to-run spread is wider than any useful bound (see
 * README.md).
 */
const std::vector<std::pair<const char *, const char *>> kInfoMetrics = {
    {"p99_ms", "ms"},
    {"throughput_qps", "1/s"},
    {"error_rate", "ratio"},
};

/**
 * While alive, the calling thread and every thread it starts run on one
 * CPU, the last one the process may use. The serve phases run so: the
 * tier's and the clients' wake-ups are then context switches on that
 * CPU. Spread over several vCPUs they are interrupts between them, whose
 * delay on a shared VM follows the host's load and makes p50 vary by 20%
 * and more from run to run.
 */
class OneCpu
{
  public:
    OneCpu()
    {
        ::sched_getaffinity(0, sizeof(_saved), &_saved);
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(lastCpu(_saved), &one);
        ::sched_setaffinity(0, sizeof(one), &one);
    }
    ~OneCpu() { ::sched_setaffinity(0, sizeof(_saved), &_saved); }

    OneCpu(const OneCpu &) = delete;
    OneCpu &operator=(const OneCpu &) = delete;

    static int
    lastCpu(const cpu_set_t &set)
    {
        for (int c = CPU_SETSIZE - 1; c > 0; --c)
            if (CPU_ISSET(c, &set))
                return c;
        return 0;
    }

  private:
    cpu_set_t _saved;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string gitSha = "unavailable";
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes; ///< extra human-readable lines
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

/** p-th percentile of @p v; nullopt when empty. */
std::optional<double>
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return std::nullopt;
    std::sort(v.begin(), v.end());
    return percentileSorted(v, pct);
}

/** p50, p90, max, and the highest percentile with 10 samples beyond. */
std::string
tailNote(const char *what, std::vector<double> v, const char *unit)
{
    std::sort(v.begin(), v.end());
    std::ostringstream oss;
    oss << "tail " << what << ": ";
    if (!v.empty())
        oss << "p50 " << fmtDouble(percentileSorted(v, 50)) << ", p90 "
            << fmtDouble(percentileSorted(v, 90)) << ", max "
            << fmtDouble(v.back()) << "; ";
    auto tail = highestSupportedPercentile(v);
    if (!tail)
        oss << "missing (n=" << v.size() << ")";
    else
        oss << "p" << tail->pct << " = " << fmtDouble(tail->value) << " "
            << unit << " (n=" << tail->count << ", " << tail->beyond
            << " beyond)";
    return oss.str();
}

void
tally(const std::vector<Record> &records, Outcome &out)
{
    for (const Record &r : records) {
        ++out.attempted;
        out.failed += r.verdict == Verdict::Ok ? 0 : 1;
    }
}

/** Closed-loop OK answers per second. */
std::optional<double>
closedRate(const ClosedLoopResult &closed, Outcome &out)
{
    double ok = static_cast<double>(closed.settledOk);
    for (const Record &r : closed.records)
        ok += r.verdict == Verdict::Ok ? 1.0 : 0.0;
    out.attempted += closed.sent;
    out.failed += closed.sent - static_cast<std::uint64_t>(ok);
    out.notes.push_back("closed loop: " + std::to_string(closed.sent) +
                        " requests in " + fmtDouble(closed.seconds) +
                        " s, " + std::to_string(kClosedWindow) +
                        " in flight per connection");
    if (!(closed.seconds > 0))
        return std::nullopt;
    return ok / closed.seconds;
}

/**
 * The dense sweep, run kTracedSweeps times with its CSV checked against
 * the recorded digest, into the sweep.* layer metrics.
 */
void
traceDenseSweep(Report &report, Outcome &out)
{
    DigestBuf sink;
    std::vector<SweepTiming> timings;
    double lines = 0.0, wall_s = 0.0;
    for (int r = 0; r < kTracedSweeps; ++r) {
        SweepTiming t = sweepOnce(denseSpecStrings(), workerThreads(), sink);
        ++out.attempted;
        out.failed += t.digest == kDenseCsvDigest ? 0 : 1;
        lines += static_cast<double>(t.lines);
        wall_s += t.wallMs / 1e3;
        timings.push_back(t);
    }
    reportSweepLayers(timings, report);
    report.set("sweep.cells_per_s", lines / wall_s);
    out.notes.push_back("dense sweep: " + std::to_string(timings.size()) +
                        " runs on " + std::to_string(workerThreads()) +
                        " jobs, " + std::to_string(timings.front().lines) +
                        " CSV lines each");
}

void
runServe(const Args &args, Report &report, Report &info, Outcome &out)
{
    configureServeProcess();
    bool hot = args.workload == "serve-hot";
    std::unique_ptr<Traffic> traffic =
        hot ? makeHotTraffic(args.seed) : makeColdTraffic(args.seed);
    // Untraced: five sixths of the time open loop (p50_ms is the bounded
    // metric), the rest closed loop. Traced: the same phases at half
    // length, then the replays.
    double closed_s = args.seconds / (args.trace ? 12 : 6);
    double open_s = 5 * closed_s;
    ServeRig rig;
    OpenLoopResult open;
    ClosedLoopResult closed;
    std::optional<double> rss;
    {
        OneCpu pin;
        rig = setUpServe(*traffic, args.trace ? 1 : kServeSetups);
        open = runOpenLoop(*traffic, rig.conns, open_s);
        // Read before the closed loop: by now serve-cold has filled both
        // shard caches, and what the closed loop adds is the benchmark's
        // own bookkeeping, which grows with throughput.
        rss = peakRssMb();
        closed = runClosedLoop(*traffic, rig.conns, closed_s);
        rig.conns.clear();
        rig.tier.reset();
    }

    resolveAll(*traffic, kStreamOpen, open.records, workerThreads());
    resolveAll(*traffic, kStreamClosed, closed.records, workerThreads());
    tally(rig.warmupRecords, out);
    tally(open.records, out);
    std::optional<double> qps = closedRate(closed, out);

    // A request that failed misses every latency limit.
    for (std::size_t i = 0; i < open.records.size(); ++i)
        if (open.records[i].verdict != Verdict::Ok)
            open.latencyMs[i] = std::numeric_limits<double>::infinity();
    std::optional<double> p50 = percentile(open.latencyMs, 50);
    std::optional<double> p99 = percentile(open.latencyMs, 99);
    out.notes.push_back("open loop: " + std::to_string(open.records.size()) +
                        " requests at " + fmtDouble(traffic->rate()) +
                        " req/s on " + std::to_string(kConnections) +
                        " connections");
    out.notes.push_back(tailNote("latency", open.latencyMs, "ms"));
    out.notes.push_back(tailNote("generator lateness", open.lateMs, "ms"));

    if (!args.trace) {
        report.set("p50_ms", p50);
        report.set("setup_s", median(rig.setupSeconds));
        report.set("peak_rss_mb", rss);
        info.set("p99_ms", p99);
        info.set("throughput_qps", qps);
        return;
    }

    report.set("gen.p99_ms", p99);
    report.set("gen.throughput_qps", qps);
    report.set("gen.late_p99_ms", percentile(open.lateMs, 99));

    LayerInputs in;
    for (std::uint64_t i = 0; i < kReplayRequests; ++i)
        in.payloads.push_back(traffic->payload(kStreamOpen, i));
    for (std::uint64_t i = 0; i < traffic->warmupCount(); ++i)
        in.warmup.push_back(traffic->payload(kStreamWarm, i));
    in.spacingUs = 1e6 * kConnections / traffic->rate();
    Ledger ledger;
    {
        // On the CPU the serve phases used, so the ledger adds up the
        // same wake-ups p50 saw.
        OneCpu pin;
        ledger = replayServeLayers(in, report);
    }
    double path_us = hot ? ledger.hitPathUs() : ledger.missPathUs();
    if (p50 && *p50 > 0)
        report.set("trace.unattributed_share",
                   (*p50 - path_us / 1e3) / *p50);
    out.notes.push_back("ledger: blocking-path layer medians sum to " +
                        fmtDouble(path_us) + " us against p50 " +
                        (p50 ? fmtDouble(*p50 * 1e3) + " us" : "missing"));

    traceDenseSweep(report, out);
}

std::string
metaLine(const Args &args)
{
    const hcm::obs::BuildInfo &build = hcm::obs::buildInfo();
    cpu_set_t cpus;
    ::sched_getaffinity(0, sizeof(cpus), &cpus);
    std::ostringstream oss;
    oss << "meta {\"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << fmtDouble(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpu\": " << jsonString(cpuModel())
        << ", \"compiler\": " << jsonString(build.compiler)
        << ", \"build_type\": " << jsonString(build.buildType)
        << ", \"version\": " << jsonString(build.version)
        << ", \"git_sha\": " << jsonString(args.gitSha)
        << ", \"rate_rps\": "
        << fmtDouble(args.workload == "serve-hot" ? kHotRate : kColdRate)
        << ", \"connections\": " << kConnections
        << ", \"closed_window\": " << kClosedWindow
        << ", \"serve_cpu\": " << OneCpu::lastCpu(cpus)
        << ", \"sweep_jobs\": " << workerThreads() << "}";
    return oss.str();
}

int
hashFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "perfbench: cannot read " << path << "\n";
        return 2;
    }
    Digest d;
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
        d.update(buf, static_cast<std::size_t>(in.gcount()));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(d.hash));
    std::cout << "fnv1a64 " << hex << " bytes " << d.bytes << "\n";
    return 0;
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload serve-hot|serve-cold "
                 "--seed N --seconds S --trace 0|1 [--git-sha SHA]\n"
                 "       perfbench --hash-file FILE\n";
    return 2;
}

int
run(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage("missing value after " + a);
        std::string v = argv[++i];
        if (a == "--hash-file")
            return hashFile(v);
        else if (a == "--workload")
            args.workload = v;
        else if (a == "--seed")
            args.seed = std::stoull(v);
        else if (a == "--seconds")
            args.seconds = std::stod(v);
        else if (a == "--trace")
            args.trace = v == "1";
        else if (a == "--git-sha")
            args.gitSha = v;
        else
            return usage("unknown option " + a);
    }
    if (std::find(kWorkloadNames.begin(), kWorkloadNames.end(),
                  args.workload) == kWorkloadNames.end())
        return usage("unknown workload '" + args.workload + "'");
    if (!(args.seconds > 0))
        return usage("--seconds must be positive");

    std::cout << metaLine(args) << "\n" << std::flush;
    Report report(args.trace ? kPerLayerMetrics : kEndToEndMetrics);
    Report info(kInfoMetrics);
    Outcome out;
    runServe(args, report, info, out);

    bool correct = out.failed == 0 && out.attempted > 0;
    if (out.attempted > 0)
        info.set("error_rate", static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted));
    for (const std::string &note : out.notes)
        std::cout << note << "\n";
    report.writeHuman(std::cout, "metric");
    if (!args.trace)
        info.writeHuman(std::cout, "unbounded");
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": ";
    report.writeJson(std::cout);
    std::cout << "}\n" << std::flush;
    if (!correct) {
        std::cerr << "perfbench: " << out.failed << " of " << out.attempted
                  << " outputs differ from the oracle\n";
        return 1;
    }
    if (report.anyMissing()) {
        std::cerr << "perfbench: some metrics were not measured\n";
        return 1;
    }
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
