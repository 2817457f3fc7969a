/**
 * @file
 * `hcm` — command-line front end to the library. Regenerates any paper
 * table or figure, runs projections and single design points for
 * arbitrary (workload, f, scenario) combinations, and lists the model's
 * vocabulary. See `hcm help` for usage.
 */

#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/crossover.hh"
#include "core/mixed.hh"
#include "devices/roofline.hh"
#include "core/pareto.hh"
#include "core/projection.hh"
#include "hwc/perf_counters.hh"
#include "hwc/self_roofline.hh"
#include "mem/traffic.hh"
#include "obs/build_info.hh"
#include "obs/metrics.hh"
#include "obs/process_metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "obs/trace_merge.hh"
#include "plot/figure.hh"
#include "prof/bench_results.hh"
#include "report/export.hh"
#include "report/paper.hh"
#include "report/studies.hh"
#include "sim/simulator.hh"
#include "net/fleet.hh"
#include "net/front_door.hh"
#include "net/loadgen.hh"
#include "net/server.hh"
#include "svc/engine.hh"
#include "svc/fault.hh"
#include "svc/flight_recorder.hh"
#include "svc/request.hh"
#include "svc/router.hh"
#include "svc/service.hh"
#include "sweep/export.hh"
#include "sweep/spec.hh"
#include "sweep/sweep.hh"
#include "util/format.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"

namespace {

using namespace hcm;

const char *kUsage = R"(hcm — heterogeneous computing models (MICRO 2010 reproduction)

usage: hcm <command> [options]

commands:
  table <1-6>             print a paper table
  figure <2-10>           print a paper figure (ASCII) and write
                          CSV/gnuplot files under --out (default bench_out)
  project                 projection rows across ITRS nodes
  sweep                   parallel design-space sweep: workload set x
                          f-grid x scenario set x organization x node,
                          fanned across worker threads (CSV/JSON out)
  optimize                one design point at one node
  pareto                  speedup/energy Pareto frontier at one node
  simulate                cross-check one design on the event simulator
  traffic                 cache-trace traffic vs compulsory bytes
  mixed                   multi-kernel chip with per-slot fabrics
                          (repeat --slot device:workload:fraction)
  crossover               minimum f where a HET beats the best CMP
  roofline                device roofline + workload placement;
                          --measured probes THIS host's ceilings with
                          calibrated microkernels and places the
                          model's hot loops on them via hardware
                          counters (ascii chart; --json for the
                          machine-readable report, --output <file>
                          to also write it; --smoke shrinks the
                          probes for CI)
  scenarios               Section 6.2 scenario summary
  study <name>            print one extension study (see hcm list)
  batch <requests.json>   evaluate a batch of JSON queries on the
                          thread-pooled engine; emits results + metrics
                          (--results-only: just {"results":[...]})
  serve                   JSON request/response loop ({"type":"metrics"}
                          for stats, optionally with "format":"prom";
                          {"type":"trace"} for the collected trace;
                          {"type":"profile"} for the profile tree);
                          line-delimited on stdin/stdout by default,
                          length-prefixed frames on TCP with --port
                          (--shards N serves N engines behind an
                          in-process consistent-hash front door)
  front                   TCP front door over remote shards: routes
                          queries by canonical key across --shard-addrs,
                          fans batches out, degrades to structured
                          shard_unavailable errors when a shard is lost
  loadgen <mix>           replay a query mix (JSONL or batch document)
                          against --connect at --rate; reports
                          p50/p95/p99 latency and error/shed counts;
                          every request carries a minted requestId
                          (--samples-out records them per request)
  top                     fleet dashboard over a front door's
                          {"type":"fleet"} verb: per-shard qps,
                          latency percentiles, queue depth, cache hit
                          rate; redraws every --interval-ms, or prints
                          once and exits with --once
  trace-merge <file...>   stitch per-process --trace-out files into
                          one timeline (pid per input, wall-clock
                          aligned) written to --output (default
                          stdout); load it in Perfetto to see a
                          request flow front door -> shard
  bench                   run the google-benchmark suites and merge
                          their results into one BENCH_RESULTS.json
  bench-diff <old> <new>  compare two bench results files; exit 1 when
                          a median slowdown exceeds the tolerance
  validate-trace <file>   check a --trace-out or trace-merge file is a
                          well-formed Chrome trace — merged files also
                          get flow pairing and per-process timestamp
                          monotonicity checks (exit 1 with a reason)
  list                    devices, workloads, scenarios, nodes,
                          studies
  help                    this text

options (project/optimize/scenarios):
  --workload <mmm|bs|fft:N>   kernel (default fft:1024); N is a
                              Table 5 size (64, 1024, 16384), or any
                              power of two for traffic
  --f <value>                 parallel fraction (default 0.99)
  --scenario <name>           baseline | bandwidth-90 | bandwidth-1tb |
                              half-area | power-200w | power-10w |
                              alpha-2.25 | multi-amdahl | thermal-85c |
                              thermal-3d (default baseline)
  --node <nm>                 40|32|22|16|11 (optimize only; default 22)
  --device <name>             corei7-baseline CMPs are always shown;
                              restricts HETs to one device
                              (gtx285|gtx480|r5870|lx760|asic)
  --energy                    report normalized energy instead of speedup
  --json                      project: emit JSON instead of a table
  --csv                       project: emit the sweep CSV schema via the
                              serial projection path (the byte-exact
                              reference for `hcm sweep`)
  --chunks <count>            parallel chunks for simulate (default 20000)
  --cache <KiB>               on-chip capacity for traffic (default 64)
  --slot <dev:workload:frac>  mixed: one kernel slot, e.g.
                              asic:mmm:0.5 or gtx285:fft:1024:0.45
  --shared                    mixed: one fabric reused by every phase
  --target <ratio>            crossover: required HET/CMP margin
                              (default 1.5)
  --out <dir>                 output directory for figure files

options (sweep):
  --workloads <list>          comma-separated workload set, e.g.
                              mmm,bs,fft:1024 (default mmm,bs,fft:1024)
  --fractions <list>          comma-separated parallel fractions in
                              [0,1] (default 0.5,0.9,0.99,0.999)
  --scenarios <list>          comma-separated scenario names, or "all"
                              for baseline + every alternative incl.
                              multi-amdahl and the thermal scenarios;
                              duplicates run once (default baseline)
  --jobs <n>                  worker threads (default: hardware;
                              1 = run serially inline)
  --progress                  report completed/total units on stderr
  --format <csv|json>         output format (default csv)
  --output <file>             write results there instead of stdout

options (batch/serve):
  --threads <n>               worker threads (default: hardware)
  --cache-entries <n>         memoization cache capacity (default 4096;
                              0 disables the cache)
  --slow-query-ms <ms>        log queries slower than this (queue wait
                              + eval) and count them in
                              hcm_svc_slow_queries_total (default: off)
  --deadline-ms <ms>          default per-query deadline; late queries
                              answer {"error":...,"type":
                              "deadline_exceeded"} (per-request
                              "deadlineMs" wins; default: none)
  --admission-wait-ms <ms>    how long a query may wait at a full
                              worker queue before an "overloaded"
                              error with a retryAfterMs hint (0 =
                              reject immediately; default 5000)
  --fault-spec <spec>         deterministic fault injection for
                              testing, e.g. eval:throw:nth=2 or
                              eval:delay=50 (sites: eval, dequeue;
                              comma-separate rules)
  --results-only              batch: emit exactly {"results":[...]}
                              with no metrics member (the byte-exact
                              reference for loadgen --output)

options (serve/front/loadgen — networked tier):
  --port <n>                  serve/front: listen on this TCP port
                              (0 = ephemeral; serve without --port
                              keeps the stdin/stdout loop)
  --host <addr>               listen/connect address (default
                              127.0.0.1)
  --shards <n>                serve --port: shard the key space across
                              n engines behind one in-process front
                              door (default 1)
  --shard-id <label>          serve: tag this engine's thread-pool
                              metrics with a shard label
  --shard-addrs <list>        front: comma-separated host:port shard
                              endpoints (ring order independent)
  --connect <host:port>       loadgen: endpoint to replay against
  --rate <qps>                loadgen: target request rate
                              (default 0 = as fast as possible)
  --concurrency <n>           loadgen: concurrent connections
                              (default 4)
  --repeat <n>                loadgen: replay the mix n times
                              (default 1)
  --timeout-ms <ms>           net I/O timeout: every connect/read/write
                              is bounded by this (default 5000)
  --scrape-interval-ms <ms>   front / serve --shards: period of the
                              background fleet scrape feeding the
                              {"type":"fleet"} verb (0 = scrape on
                              demand per request; default 1000)
  --flight-recorder-size <n>  serve/front: keep the last n completed
                              requests (id, latency breakdown,
                              outcome) for the {"type":"requests"}
                              verb (0 = off; default 256)
  --samples-out <file>        loadgen: write one JSONL sample per
                              request — index, requestId, latencyMs,
                              outcome — joinable against merged
                              traces and shard flight recorders
  --no-request-ids            loadgen: do not mint/splice requestIds
                              (sends become byte-identical to the mix)
  --interval-ms <ms>          top: redraw period (default 1000)
  --once                      top: print one snapshot and exit
                              (exit 1 when the front door is
                              unreachable)

options (bench/bench-diff):
  --bench-dir <dir>           directory with the gbench binaries and
                              manifest (default build/bench)
  --only <substr>             run only binaries whose name contains this
  --smoke                     fast sweep: minimal measurement time,
                              one repetition
  --repetitions <n>           repetitions per benchmark (default:
                              3, or 1 with --smoke)
  --results <file>            where to write the merged results
                              (default BENCH_RESULTS.json)
  --tolerance-pct <pct>       bench-diff: median slowdown beyond this
                              is a regression (default 10)
  --min-time-ns <ns>          bench-diff: ignore benchmarks faster than
                              this in both files (default 0)
  --counter-tolerance-pct <p> bench-diff: median IPC drop beyond this
                              percentage is a regression; gates only
                              benchmarks with counter data in both
                              files (default 0 = off)

observability (batch/serve/simulate):
  --trace-out <file>          enable span tracing and write a Chrome
                              trace_event JSON on exit (load it in
                              chrome://tracing or ui.perfetto.dev)
  --profile-out <file>        enable the scoped profiler and write the
                              aggregated profile on exit
  --profile-format <fmt>      collapsed (flamegraph.pl/speedscope
                              input) | json (default collapsed)
  --metrics-out <file>        write collected metrics on exit
  --metrics-format <fmt>      json | prom (default json)
  --verbose                   lower the log threshold one step per
                              occurrence (-> Info -> Debug;
                              HCM_LOG_LEVEL wins when set; serve
                              defaults to warn)

examples:
  hcm table 5
  hcm figure 6
  hcm project --workload mmm --f 0.999
  hcm optimize --workload fft:1024 --f 0.9 --node 11 --scenario power-10w
)";

/** Parsed command-line options. */
struct Options
{
    wl::Workload workload = wl::Workload::fft(1024);
    double f = 0.99;
    std::string scenario = "baseline";
    double node = 22.0;
    std::optional<dev::DeviceId> device;
    bool energy = false;
    bool json = false;
    std::size_t chunks = 20000;
    std::size_t cacheKib = 64;
    std::vector<std::string> slots;
    bool shared = false;
    double target = 1.5;
    std::string out = "bench_out";
    std::size_t threads = 0;
    std::size_t cacheEntries = 4096;
    std::uint64_t slowQueryNs = 0;
    std::uint64_t deadlineNs = 0;
    std::uint64_t admissionWaitNs = 5'000'000'000;
    std::string faultSpec;
    std::string traceOut;
    std::string profileOut;
    std::string profileFormat = "collapsed";
    std::string metricsOut;
    std::string metricsFormat = "json";
    unsigned verbosity = 0;
    std::string benchDir = "build/bench";
    std::string only;
    bool smoke = false;
    int repetitions = 0;
    std::string results = "BENCH_RESULTS.json";
    double tolerancePct = 10.0;
    double minTimeNs = 0.0;
    double counterTolerancePct = 0.0;
    bool measured = false;
    bool csv = false;
    sweep::SpecStrings sweepSpec;
    std::size_t jobs = 0;
    bool progress = false;
    std::string format = "csv";
    std::string output;
    bool resultsOnly = false;
    int port = -1; // -1 = no TCP; 0 = ephemeral
    std::string host = "127.0.0.1";
    std::size_t shards = 1;
    std::string shardId;
    std::string shardAddrs;
    std::string connect;
    double rate = 0.0;
    std::size_t concurrency = 4;
    std::size_t repeat = 1;
    std::uint64_t timeoutMs = 5000;
    std::uint64_t scrapeIntervalMs = 1000;
    std::size_t flightRecorderSize = 256;
    std::string samplesOut;
    bool noRequestIds = false;
    std::uint64_t intervalMs = 1000;
    bool once = false;
};

using WorkloadParser = std::optional<wl::Workload> (*)(
    const std::string &, std::string *);

/** @p spec through one of svc's workload parsers; fatal on its error. */
wl::Workload
workloadOrDie(const std::string &spec,
              WorkloadParser parse = svc::parseModelWorkload)
{
    std::string error;
    auto w = parse(spec, &error);
    if (!w)
        hcm_fatal(error);
    return *w;
}

/** svc::parseDeviceName(); fatal on an unknown name. */
dev::DeviceId
deviceOrDie(const std::string &name)
{
    auto id = svc::parseDeviceName(name);
    if (!id)
        hcm_fatal("unknown device '", name, "'");
    return *id;
}

/** parseNumber() of @p what's value @p text; fatal when it is none. */
template <typename T>
T
numberOrDie(const std::string &what, const std::string &text)
{
    auto value = parseNumber<T>(text);
    if (!value)
        hcm_fatal("bad value '", text, "' for ", what);
    return *value;
}

/** Options from args[start...]; --workload through @p parse_workload. */
Options
parseOptions(const std::vector<std::string> &args, std::size_t start,
             WorkloadParser parse_workload = svc::parseModelWorkload)
{
    Options opts;
    for (std::size_t i = start; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                hcm_fatal("missing value after ", a);
            return args[++i];
        };
        auto number = [&](auto &target) {
            target = numberOrDie<std::remove_reference_t<decltype(target)>>(
                a, next());
        };
        auto nanoseconds = [&](std::uint64_t &target) {
            std::string error;
            auto ns = svc::msToNs(numberOrDie<double>(a, next()), &error);
            if (!ns)
                hcm_fatal(a, " ", error);
            target = *ns;
        };
        // Whole milliseconds, checked like nanoseconds and truncated;
        // a positive value under 1 ms would truncate to 0, "none".
        auto milliseconds = [&](std::uint64_t &target) {
            nanoseconds(target);
            if (target > 0 && target < 1000000)
                hcm_fatal(a, " must be at least 1 ms when positive, got ",
                          args[i]);
            target /= 1000000;
        };
        if (a == "--workload") {
            opts.workload = workloadOrDie(next(), parse_workload);
        } else if (a == "--f") {
            number(opts.f);
            if (!(opts.f >= 0.0 && opts.f <= 1.0))
                hcm_fatal("--f must lie in [0, 1], got ", opts.f);
        } else if (a == "--scenario") {
            // Validate only: crossover echoes the name as typed.
            opts.scenario = next();
            if (!core::findScenario(opts.scenario))
                hcm_fatal("unknown scenario '", opts.scenario, "'");
        } else if (a == "--node") {
            number(opts.node);
            if (!svc::nodeExists(opts.node))
                hcm_fatal("unknown node ", opts.node,
                          " (expected 40, 32, 22, 16, or 11)");
        } else if (a == "--device")
            opts.device = deviceOrDie(next());
        else if (a == "--energy")
            opts.energy = true;
        else if (a == "--json")
            opts.json = true;
        else if (a == "--csv")
            opts.csv = true;
        else if (a == "--workloads")
            opts.sweepSpec.workloads = next();
        else if (a == "--fractions")
            opts.sweepSpec.fractions = next();
        else if (a == "--scenarios")
            opts.sweepSpec.scenarios = next();
        else if (a == "--jobs")
            number(opts.jobs);
        else if (a == "--progress")
            opts.progress = true;
        else if (a == "--format")
            opts.format = next();
        else if (a == "--output")
            opts.output = next();
        else if (a == "--chunks")
            number(opts.chunks);
        else if (a == "--cache")
            number(opts.cacheKib);
        else if (a == "--slot")
            opts.slots.push_back(next());
        else if (a == "--shared")
            opts.shared = true;
        else if (a == "--target")
            number(opts.target);
        else if (a == "--out")
            opts.out = next();
        else if (a == "--threads")
            number(opts.threads);
        else if (a == "--cache-entries")
            number(opts.cacheEntries);
        else if (a == "--slow-query-ms")
            nanoseconds(opts.slowQueryNs);
        else if (a == "--deadline-ms")
            nanoseconds(opts.deadlineNs);
        else if (a == "--admission-wait-ms")
            nanoseconds(opts.admissionWaitNs);
        else if (a == "--fault-spec")
            opts.faultSpec = next();
        else if (a == "--trace-out")
            opts.traceOut = next();
        else if (a == "--profile-out")
            opts.profileOut = next();
        else if (a == "--profile-format")
            opts.profileFormat = next();
        else if (a == "--metrics-out")
            opts.metricsOut = next();
        else if (a == "--metrics-format")
            opts.metricsFormat = next();
        else if (a == "--verbose")
            ++opts.verbosity;
        else if (a == "--bench-dir")
            opts.benchDir = next();
        else if (a == "--only")
            opts.only = next();
        else if (a == "--smoke")
            opts.smoke = true;
        else if (a == "--repetitions")
            number(opts.repetitions);
        else if (a == "--results")
            opts.results = next();
        else if (a == "--tolerance-pct")
            number(opts.tolerancePct);
        else if (a == "--min-time-ns")
            number(opts.minTimeNs);
        else if (a == "--counter-tolerance-pct")
            number(opts.counterTolerancePct);
        else if (a == "--measured")
            opts.measured = true;
        else if (a == "--results-only")
            opts.resultsOnly = true;
        else if (a == "--port")
            number(opts.port);
        else if (a == "--host")
            opts.host = next();
        else if (a == "--shards")
            number(opts.shards);
        else if (a == "--shard-id")
            opts.shardId = next();
        else if (a == "--shard-addrs")
            opts.shardAddrs = next();
        else if (a == "--connect")
            opts.connect = next();
        else if (a == "--rate")
            number(opts.rate);
        else if (a == "--concurrency")
            number(opts.concurrency);
        else if (a == "--repeat")
            number(opts.repeat);
        else if (a == "--timeout-ms")
            milliseconds(opts.timeoutMs);
        else if (a == "--scrape-interval-ms")
            milliseconds(opts.scrapeIntervalMs);
        else if (a == "--flight-recorder-size")
            number(opts.flightRecorderSize);
        else if (a == "--samples-out")
            opts.samplesOut = next();
        else if (a == "--no-request-ids")
            opts.noRequestIds = true;
        else if (a == "--interval-ms")
            milliseconds(opts.intervalMs);
        else if (a == "--once")
            opts.once = true;
        else
            hcm_fatal("unknown option '", a, "' (see hcm help)");
    }
    if (opts.metricsFormat != "json" && opts.metricsFormat != "prom")
        hcm_fatal("--metrics-format must be json or prom, not '",
                  opts.metricsFormat, "'");
    if (opts.profileFormat != "collapsed" && opts.profileFormat != "json")
        hcm_fatal("--profile-format must be collapsed or json, not '",
                  opts.profileFormat, "'");
    if (opts.format != "csv" && opts.format != "json")
        hcm_fatal("--format must be csv or json, not '", opts.format,
                  "'");
    if (opts.port > 65535)
        hcm_fatal("--port must be in [0, 65535]");
    if (opts.shards == 0)
        hcm_fatal("--shards must be >= 1");
    if (opts.rate < 0.0)
        hcm_fatal("--rate must be >= 0");
    if (opts.intervalMs == 0)
        hcm_fatal("--interval-ms must be > 0");
    if (opts.counterTolerancePct < 0.0)
        hcm_fatal("--counter-tolerance-pct must be >= 0");
    return opts;
}

/**
 * Map repeated --verbose flags / serve's quiet default onto the log
 * threshold: each --verbose lowers the command's base level one step
 * (serve: Warn -> Info -> Debug; others: Info -> Debug). HCM_LOG_LEVEL
 * always wins so operators can override either way.
 */
void
applyLogOptions(const Options &opts, bool quiet_default)
{
    if (std::getenv("HCM_LOG_LEVEL"))
        return;
    LogLevel base = quiet_default ? LogLevel::Warn : LogLevel::Inform;
    setLogThreshold(lowerLogLevel(base, opts.verbosity));
}

/**
 * Write the file @p path through @p fill. A file that cannot be opened
 * or written (an empty path included) is fatal:
 * "cannot write <what>'<path>'".
 */
template <typename Fill>
void
writeOutput(const std::string &path, const std::string &what, Fill &&fill)
{
    std::ofstream out(path);
    fill(out);
    if (!out.flush())
        hcm_fatal("cannot write ", what, "'", path, "'");
}

/**
 * RAII tracing session: --trace-out enables span collection for the
 * command's lifetime and writes the Chrome trace on scope exit.
 */
class TraceSession
{
  public:
    explicit TraceSession(const Options &opts) : _path(opts.traceOut)
    {
        if (!_path.empty())
            obs::Tracer::instance().setEnabled(true);
    }

    ~TraceSession()
    {
        if (_path.empty())
            return;
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.setEnabled(false);
        std::size_t spans = tracer.spanCount();
        writeOutput(_path, "trace file ", [&](std::ostream &out) {
            tracer.writeChromeTrace(out);
            out << "\n";
        });
        hcm_inform("trace written", logField("file", _path),
                   logField("spans", spans));
    }

  private:
    std::string _path;
};

/**
 * RAII profiling session: --profile-out enables the profiler
 * for the command's lifetime and writes the aggregated profile —
 * collapsed-stack text or the JSON tree — on scope exit.
 */
class ProfileSession
{
  public:
    explicit ProfileSession(const Options &opts)
        : _path(opts.profileOut), _format(opts.profileFormat)
    {
        if (!_path.empty())
            obs::Profiler::instance().setEnabled(true);
    }

    ~ProfileSession()
    {
        if (_path.empty())
            return;
        obs::Profiler &profiler = obs::Profiler::instance();
        profiler.setEnabled(false);
        std::size_t sites = profiler.siteCount();
        writeOutput(_path, "profile file ", [&](std::ostream &out) {
            if (_format == "json") {
                profiler.writeJson(out);
                out << "\n";
            } else {
                profiler.writeCollapsed(out);
            }
        });
        hcm_inform("profile written", logField("file", _path),
                   logField("sites", sites),
                   logField("format", _format));
    }

  private:
    std::string _path;
    std::string _format;
};

/**
 * Write --metrics-out in the chosen format: scope "all" of the
 * engine's metrics (when a query engine ran) and the process-wide
 * registry (thread pool, simulator); JSON ends with a newline.
 */
void
writeMetricsFile(const Options &opts, const svc::QueryEngine *engine)
{
    if (opts.metricsOut.empty())
        return;
    writeOutput(opts.metricsOut, "metrics file ", [&](std::ostream &out) {
        out << svc::metricsPayload(engine, opts.metricsFormat, "all");
        if (opts.metricsFormat != "prom")
            out << "\n";
    });
    hcm_inform("metrics written", logField("file", opts.metricsOut),
               logField("format", opts.metricsFormat));
}

int
cmdTable(int which)
{
    if (!report::writeTable(std::cout, which))
        hcm_fatal("no table ", which, " (1-6)");
    return 0;
}

int
cmdFigure(int which, const Options &opts)
{
    std::optional<plot::Figure> fig = report::figure(which);
    if (!fig)
        hcm_fatal("no figure ", which, " (2-10)");
    fig->renderAscii(std::cout);
    fig->writeFiles(opts.out);
    std::cout << "[files] " << opts.out << "/" << fig->id() << ".csv\n";
    report::writeFigureRows(std::cout, which);
    return 0;
}

int
cmdProject(const Options &opts)
{
    const core::Scenario &scenario = core::scenarioByName(opts.scenario);
    if (opts.csv) {
        sweep::SweepResult reference =
            sweep::projectionReference(opts.workload, opts.f, scenario);
        sweep::writeSweepCsv(std::cout, reference);
        return 0;
    }
    if (opts.json) {
        report::exportProjectionJson(std::cout, opts.workload, {opts.f},
                                   scenario);
        return 0;
    }
    TextTable t((opts.energy ? std::string("Energy (BCE@40nm units)")
                             : std::string("Speedup (vs 1 BCE)")) +
                ", " + opts.workload.name() + ", f=" +
                fmtFixed(opts.f, 4) + ", scenario=" + scenario.name);
    std::vector<std::string> headers = {"Organization"};
    for (const auto &node : itrs::nodeTable())
        headers.push_back(node.label());
    t.setHeaders(headers);
    for (const auto &series :
         core::projectAll(opts.workload, opts.f, scenario)) {
        if (!series.org.matchesDevice(opts.device))
            continue;
        std::vector<std::string> row = {series.org.name};
        for (const core::NodePoint &pt : series.points) {
            if (!pt.design.feasible) {
                row.push_back("infeasible");
                continue;
            }
            double v = opts.energy ? pt.energyNormalized()
                                   : pt.design.speedup;
            row.push_back(fmtSig(v, 3) + " (" +
                          core::limiterName(pt.design.limiter)
                              .substr(0, 1) + ")");
        }
        t.addRow(row);
    }
    std::cout << t << "limiters: "
              << core::limiterLegend(1, scenario.thermalBounded()) << "\n";
    return 0;
}

int
cmdSweep(const Options &opts)
{
    applyLogOptions(opts, false);
    TraceSession trace(opts);
    ProfileSession profile(opts);
    std::string error;
    auto spec = sweep::parseSweepSpec(opts.sweepSpec, &error);
    if (!spec)
        hcm_fatal("sweep: ", error);

    sweep::SweepOptions sopts;
    sopts.jobs = opts.jobs;
    if (opts.progress)
        sopts.progress = [](std::size_t done, std::size_t total) {
            std::cerr << "\rsweep: " << done << "/" << total
                      << " units" << (done == total ? "\n" : "")
                      << std::flush;
        };

    sweep::SweepResult result = sweep::runSweep(*spec, sopts);

    auto write = [&](std::ostream &out) {
        if (opts.format == "json")
            sweep::writeSweepJson(out, result);
        else
            sweep::writeSweepCsv(out, result);
    };
    if (opts.output.empty()) {
        write(std::cout);
    } else {
        writeOutput(opts.output, "output file ", write);
        hcm_inform("sweep written", logField("file", opts.output),
                   logField("rows", result.rows.size()),
                   logField("jobs", result.jobs));
    }
    writeMetricsFile(opts, nullptr);
    return 0;
}

int
cmdOptimize(const Options &opts)
{
    const core::Scenario &scenario = core::scenarioByName(opts.scenario);
    const itrs::NodeParams &node = itrs::nodeParams(opts.node);
    core::Budget budget =
        core::applyScenario(scenario, node, opts.workload).budget;

    std::cout << "budgets at " << node.label() << " (BCE units): A="
              << fmtSig(budget.area, 3) << " P=" << fmtSig(budget.power, 3)
              << " B=" << fmtSig(budget.bandwidth, 3);
    if (scenario.thermalBounded())
        std::cout << " TH=" << fmtSig(budget.thermal, 3) << " ("
                  << fmtSig(core::thermalDynamicPowerW(scenario), 3)
                  << " W dynamic at " << fmtSig(scenario.maxJunctionC, 3)
                  << " C)";
    std::cout << "\n\n";

    TextTable t("Best designs, " + opts.workload.name() + ", f=" +
                fmtFixed(opts.f, 4));
    t.setHeaders({"Organization", "r", "n", "speedup", "limiter",
                  "energy (norm.)"});
    for (const core::ParetoPoint &p : core::bestDesigns(
             opts.workload, opts.f, node, scenario, opts.device)) {
        const core::DesignPoint &dp = p.design;
        if (!dp.feasible) {
            t.addRow({p.orgName, "-", "-", "infeasible", "-", "-"});
            continue;
        }
        t.addRow({p.orgName, fmtSig(dp.r, 3), fmtSig(dp.n, 3),
                  fmtSig(dp.speedup, 4), core::limiterName(dp.limiter),
                  fmtSig(p.energyNormalized, 3)});
    }
    std::cout << t;
    return 0;
}

int
cmdPareto(const Options &opts)
{
    const core::Scenario &scenario = core::scenarioByName(opts.scenario);
    const itrs::NodeParams &node = itrs::nodeParams(opts.node);
    auto all = core::enumerateDesigns(opts.workload, opts.f, node,
                                      scenario);
    auto frontier = core::paretoFrontier(all);
    TextTable t("Pareto frontier, " + opts.workload.name() + ", f=" +
                fmtFixed(opts.f, 4) + ", " + node.label() + " (" +
                std::to_string(frontier.size()) + " of " +
                std::to_string(all.size()) + " designs)");
    t.setHeaders({"Organization", "r", "speedup", "energy (norm.)",
                  "limiter"});
    for (const core::ParetoPoint &p : frontier)
        t.addRow({p.orgName, fmtSig(p.design.r, 3),
                  fmtSig(p.design.speedup, 4),
                  fmtSig(p.energyNormalized, 3),
                  core::limiterName(p.design.limiter)});
    std::cout << t;
    return 0;
}

int
cmdSimulate(const Options &opts)
{
    if (!opts.device)
        hcm_fatal("simulate needs --device (the HET fabric to check)");
    applyLogOptions(opts, false);
    TraceSession trace(opts);
    ProfileSession profile(opts);
    const core::Scenario &scenario = core::scenarioByName(opts.scenario);
    const itrs::NodeParams &node = itrs::nodeParams(opts.node);
    auto org = core::heterogeneous(*opts.device, opts.workload);
    if (!org)
        hcm_fatal("no calibration data for that device/workload pair");
    core::AppliedScenario applied =
        core::applyScenario(scenario, node, opts.workload);
    core::Organization eff = applied.organization(*org);
    double f_eff = applied.fraction(opts.f);
    core::DesignPoint design =
        core::optimize(eff, f_eff, applied.budget, applied.opts);
    if (!design.feasible)
        hcm_fatal("design infeasible at this node/scenario");
    if (design.n - design.r < 1.0)
        hcm_fatal("fabric rounds to zero tiles (n - r = ",
                  fmtSig(design.n - design.r, 3),
                  "); the event simulator needs whole tiles");

    sim::Machine m = sim::Machine::fromDesign(eff, design, applied.budget,
                                              applied.opts.alpha);
    sim::SimStats stats = sim::ChipSimulator(m).run(
        sim::TaskGraph::amdahl(f_eff, opts.chunks));
    std::cout << "design: r=" << fmtSig(design.r, 3) << ", tiles="
              << m.tiles << " (n=" << fmtSig(design.n, 4) << "), "
              << core::limiterName(design.limiter) << "-limited\n";
    std::cout << "analytic speedup (continuous): "
              << fmtSig(design.speedup, 4) << "\n";
    std::cout << "simulated speedup (" << opts.chunks << " chunks):  "
              << fmtSig(stats.speedup(1.0), 4) << "\n";
    std::cout << "simulated energy: " << fmtSig(stats.energy, 4)
              << " BCE units; tile utilization "
              << fmtPercent(stats.tileUtilization(m.tiles), 1)
              << "; events " << stats.events << "\n";
    writeMetricsFile(opts, nullptr);
    return 0;
}

/** Slurp one file or die — the small-input commands' loader. */
std::string
readFileOrDie(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        hcm_fatal("cannot open '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

int
cmdValidateTrace(const std::string &path)
{
    std::string error;
    obs::TraceStats stats;
    if (!obs::validateChromeTrace(readFileOrDie(path), &error, &stats))
        hcm_fatal(path, ": ", error);
    std::cout << "valid trace: " << stats.events << " event(s), "
              << stats.flowStarts + stats.flowEnds << " flow event(s), "
              << stats.processes << " process(es)";
    if (stats.mergedFrom > 0)
        std::cout << ", merged from " << stats.mergedFrom;
    std::cout << "\n";
    return 0;
}

/** Display label for a merge input: basename without a .json suffix. */
std::string
traceLabel(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (base.size() > 5 &&
        base.compare(base.size() - 5, 5, ".json") == 0)
        base.resize(base.size() - 5);
    return base.empty() ? path : base;
}

int
cmdTraceMerge(const std::vector<std::string> &paths,
              const Options &opts)
{
    applyLogOptions(opts, false);
    std::vector<obs::TraceInput> inputs;
    for (const std::string &path : paths)
        inputs.push_back({traceLabel(path), readFileOrDie(path)});
    std::string error;
    std::ostringstream merged;
    if (!obs::mergeChromeTraces(inputs, merged, &error))
        hcm_fatal("trace-merge: ", error);
    merged << "\n";
    if (opts.output.empty()) {
        std::cout << merged.str();
        return 0;
    }
    writeOutput(opts.output, "",
                [&](std::ostream &out) { out << merged.str(); });
    hcm_inform("merged trace written", logField("file", opts.output),
               logField("inputs", inputs.size()));
    return 0;
}

int
cmdTraffic(const Options &opts)
{
    mem::CacheConfig config;
    config.sizeBytes = opts.cacheKib * 1024;
    config.lineBytes = 64;
    config.ways = 8;
    mem::TrafficResult r = mem::measureTraffic(opts.workload, config);
    std::cout << opts.workload.name() << " through a " << opts.cacheKib
              << " KiB cache:\n";
    std::cout << "  working set:  "
              << fmtSig(mem::workingSetBytes(opts.workload) / 1024.0, 4)
              << " KiB\n";
    std::cout << "  accesses:     " << r.stats.accesses()
              << "  (miss rate " << fmtPercent(r.stats.missRate(), 2)
              << ")\n";
    std::cout << "  traffic:      "
              << fmtSig(static_cast<double>(r.trafficBytes) / 1024.0, 4)
              << " KiB vs compulsory "
              << fmtSig(r.compulsoryBytes / 1024.0, 4) << " KiB  ->  "
              << fmtSig(r.multiplier(), 3) << "x\n";
    return 0;
}

/** Parse "device:workload:fraction" (workload may be "fft:N"). */
core::KernelSlot
parseSlot(const std::string &spec)
{
    auto parts = split(spec, ':');
    if (parts.size() < 3 || parts.size() > 4)
        hcm_fatal("bad --slot '", spec,
                  "' (expected device:workload:fraction)");
    dev::DeviceId device = deviceOrDie(parts[0]);
    wl::Workload w = workloadOrDie(
        parts.size() == 4 ? parts[1] + ":" + parts[2] : parts[1]);
    if (!dev::MeasurementDb::instance().find(device, w))
        hcm_fatal("bad --slot '", spec, "': no measurement for ",
                  dev::deviceName(device), " on ", w.name());
    double fraction = numberOrDie<double>("--slot", parts.back());
    return core::makeSlot(device, w, fraction);
}

int
cmdMixed(const Options &opts)
{
    if (opts.slots.empty())
        hcm_fatal("mixed needs at least one --slot");
    const core::Scenario &scenario = core::scenarioByName(opts.scenario);
    if (!scenario.segments.empty())
        hcm_fatal("mixed takes its phases from --slot; scenario '",
                  scenario.name, "' has a segment profile");
    std::vector<core::KernelSlot> slots;
    for (const std::string &spec : opts.slots)
        slots.push_back(parseSlot(spec));
    std::string why = core::slotsError(slots);
    if (!why.empty())
        hcm_fatal("bad --slot set: ", why);
    core::FabricMode mode = opts.shared ? core::FabricMode::Shared
                                        : core::FabricMode::Partitioned;

    TextTable t(std::string("Mixed-fabric chip (") +
                (opts.shared ? "shared" : "partitioned") +
                "), scenario=" + scenario.name);
    std::vector<std::string> headers = {"Node", "r", "speedup",
                                        "energy"};
    for (const core::KernelSlot &s : slots)
        headers.push_back(s.fabricName + ":" + s.workload.name());
    t.setHeaders(headers);
    for (const itrs::NodeParams &node : itrs::nodeTable()) {
        core::MixedDesign d =
            core::optimizeMixed(slots, mode, node, scenario);
        if (!d.feasible) {
            std::vector<std::string> row(headers.size(), "-");
            row[0] = node.label();
            row[2] = "infeasible";
            t.addRow(row);
            continue;
        }
        std::vector<std::string> row = {
            node.label(), fmtSig(d.r, 3), fmtSig(d.speedup, 4),
            fmtSig(d.energy * node.relPowerPerTransistor, 3)};
        for (std::size_t i = 0; i < slots.size(); ++i)
            row.push_back(fmtSig(d.areas[i], 3) + " BCE (" +
                          core::limiterName(d.slotLimiter[i])
                              .substr(0, 1) + ")");
        t.addRow(row);
    }
    std::cout << t << "limiters: "
              << core::limiterLegend(1, scenario.thermalBounded()) << "\n";
    return 0;
}

int
cmdCrossover(const Options &opts)
{
    // parseNumber() already refuses inf and nan.
    if (!(opts.target > 0.0))
        hcm_fatal("--target must be finite and > 0, got ", opts.target);
    TextTable t("Minimum f for HET >= " + fmtSig(opts.target, 3) +
                "x the best CMP on " + opts.workload.name() +
                ", scenario=" + opts.scenario);
    std::vector<std::string> headers = {"Fabric"};
    for (const auto &node : itrs::nodeTable())
        headers.push_back(node.label());
    t.setHeaders(headers);
    const core::Scenario &scenario = core::scenarioByName(opts.scenario);
    for (const core::Organization &org :
         core::paperOrganizations(opts.workload)) {
        if (!org.isHet())
            continue;
        std::vector<std::string> row = {org.name};
        for (const auto &node : itrs::nodeTable()) {
            auto f_star = core::requiredParallelism(
                *org.device, opts.workload, opts.target, node, scenario);
            row.push_back(f_star ? fmtFixed(*f_star, 3) : "never");
        }
        t.addRow(row);
    }
    std::cout << t;
    return 0;
}

int
cmdRooflineMeasured(const Options &opts)
{
    applyLogOptions(opts, false);
    hwc::SelfRooflineOptions sopts;
    if (opts.smoke) {
        // CI-sized probes: the ceilings are noisier but the whole
        // command finishes in well under a second.
        sopts.probe.streamElems = 1u << 18;
        sopts.probe.minSeconds = 0.01;
        sopts.probe.passes = 1;
        sopts.loopMinSeconds = 0.02;
    }
    hwc::SelfRooflineReport report = hwc::measureSelfRoofline(sopts);
    if (!opts.output.empty()) {
        writeOutput(opts.output, "", [&](std::ostream &out) {
            hwc::writeSelfRooflineJson(report, out);
        });
        hcm_inform("self-roofline written",
                   logField("file", opts.output));
    }
    if (opts.json)
        hwc::writeSelfRooflineJson(report, std::cout);
    else
        std::cout << hwc::renderSelfRoofline(report);
    return 0;
}

int
cmdRoofline(const Options &opts)
{
    if (opts.measured)
        return cmdRooflineMeasured(opts);
    TextTable t("Rooflines for " + opts.workload.name());
    t.setHeaders({"Device", "peak Gops/s", "peak GB/s", "ridge ops/B",
                  "workload ops/B", "attainable", "compute-bound?"});
    for (dev::DeviceId id : dev::allDevices()) {
        if (!dev::MeasurementDb::instance().find(id, opts.workload) ||
            dev::deviceInfo(id).memBw.value() <= 0.0)
            continue;
        dev::Roofline r = dev::Roofline::forDevice(id, opts.workload);
        t.addRow({dev::deviceName(id), fmtSig(r.peakPerf().value(), 3),
                  fmtSig(r.peakBandwidth().value(), 4),
                  fmtSig(r.ridgeIntensity(), 3),
                  fmtSig(opts.workload.intensity(), 3),
                  fmtSig(r.attainable(opts.workload).value(), 3),
                  r.computeBound(opts.workload) ? "yes" : "no"});
    }
    std::cout << t;
    return 0;
}

svc::EngineOptions
engineOptions(const Options &opts)
{
    svc::EngineOptions eopts;
    eopts.threads = opts.threads;
    eopts.cacheCapacity = opts.cacheEntries;
    eopts.slowQueryNs = opts.slowQueryNs;
    eopts.deadlineNs = opts.deadlineNs;
    eopts.admissionWaitNs = opts.admissionWaitNs;
    return eopts;
}

/** Arm the fault injector from --fault-spec (fatal on a bad spec). */
void
applyFaultSpec(const Options &opts)
{
    if (opts.faultSpec.empty())
        return;
    std::string error;
    if (!svc::FaultInjector::instance().configure(opts.faultSpec,
                                                  &error))
        hcm_fatal("--fault-spec: ", error);
    hcm_warn("fault injection armed", logField("spec", opts.faultSpec));
}

int
cmdBatch(const std::string &path, const Options &opts)
{
    std::string text = readFileOrDie(path);

    applyLogOptions(opts, false);
    applyFaultSpec(opts);
    TraceSession trace(opts);
    ProfileSession profile(opts);
    svc::QueryEngine engine(engineOptions(opts));
    std::string error;
    if (!svc::runBatch(text, engine, std::cout, &error,
                       opts.resultsOnly))
        hcm_fatal(path, ": ", error);
    writeMetricsFile(opts, &engine);
    return 0;
}

volatile std::sig_atomic_t g_shutdownRequested = 0;

extern "C" void
handleShutdownSignal(int)
{
    g_shutdownRequested = 1;
}

/** Block until SIGINT/SIGTERM (or @p stop_fd-style polling hooks). */
void
waitForShutdownSignal()
{
    std::signal(SIGINT, handleShutdownSignal);
    std::signal(SIGTERM, handleShutdownSignal);
    while (!g_shutdownRequested)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

int
cmdServe(const Options &opts)
{
    // The stdin/stdout loop serves one engine; sharding is the TCP
    // front door's.
    if (opts.port < 0 && opts.shards > 1)
        hcm_fatal("serve: --shards ", opts.shards, " needs --port");
    // Quiet by default: stdout carries the wire protocol, and stderr
    // chatter is noise for a supervised daemon (satellite: Warn).
    applyLogOptions(opts, true);
    applyFaultSpec(opts);
    svc::FlightRecorder::instance().configure(opts.flightRecorderSize);
    TraceSession trace(opts);
    ProfileSession profile(opts);

    if (opts.port < 0) {
        // The historical stdin/stdout loop.
        svc::EngineOptions eopts = engineOptions(opts);
        eopts.shardLabel = opts.shardId;
        svc::QueryEngine engine(eopts);
        svc::runServe(std::cin, std::cout, engine);
        writeMetricsFile(opts, &engine);
        return 0;
    }

    // TCP mode: one engine, or --shards engines behind an in-process
    // front door that owns the key-space partition.
    std::vector<std::unique_ptr<svc::QueryEngine>> engines;
    for (std::size_t s = 0; s < opts.shards; ++s) {
        svc::EngineOptions eopts = engineOptions(opts);
        if (opts.shards > 1)
            eopts.shardLabel = !opts.shardId.empty()
                                   ? opts.shardId + "-" +
                                         std::to_string(s)
                                   : std::to_string(s);
        else
            eopts.shardLabel = opts.shardId;
        engines.push_back(
            std::make_unique<svc::QueryEngine>(eopts));
    }

    std::unique_ptr<svc::RequestRouter> router;
    std::unique_ptr<net::FrontDoor> front;
    net::TcpServer::Handler handler;
    if (opts.shards == 1) {
        router = std::make_unique<svc::RequestRouter>(*engines[0]);
        handler = [&router](const std::string &request) {
            return router->route(request).body;
        };
    } else {
        std::vector<std::unique_ptr<net::ShardBackend>> backends;
        for (std::size_t s = 0; s < opts.shards; ++s)
            backends.push_back(std::make_unique<net::LocalShardBackend>(
                "shard-" + std::to_string(s), *engines[s]));
        net::FrontDoorOptions fopts;
        fopts.scrapeIntervalMs = opts.scrapeIntervalMs;
        front = std::make_unique<net::FrontDoor>(std::move(backends),
                                                 fopts);
        handler = [&front](const std::string &request) {
            return front->handle(request);
        };
    }

    net::TcpServerOptions sopts;
    sopts.host = opts.host;
    sopts.port = static_cast<std::uint16_t>(opts.port);
    net::TcpServer server(sopts, std::move(handler));
    std::string error;
    if (!server.start(&error))
        hcm_fatal("serve: ", error);
    // The kernel assigns ephemeral ports; print the real one so
    // scripts using --port 0 can find us.
    std::cout << "listening " << opts.host << ":" << server.port()
              << "\n"
              << std::flush;
    waitForShutdownSignal();
    server.stop();
    writeMetricsFile(opts, engines.size() == 1 ? engines[0].get()
                                               : nullptr);
    return 0;
}

int
cmdFront(const Options &opts)
{
    applyLogOptions(opts, true);
    svc::FlightRecorder::instance().configure(opts.flightRecorderSize);
    TraceSession trace(opts);
    ProfileSession profile(opts);
    if (opts.port < 0)
        hcm_fatal("front: --port is required");
    if (opts.shardAddrs.empty())
        hcm_fatal("front: --shard-addrs is required");

    std::vector<std::unique_ptr<net::ShardBackend>> backends;
    std::istringstream specs(opts.shardAddrs);
    std::string spec;
    while (std::getline(specs, spec, ',')) {
        if (spec.empty())
            continue;
        std::string host;
        std::uint16_t port = 0;
        std::string error;
        if (!net::parseHostPort(spec, &host, &port, &error))
            hcm_fatal("front: --shard-addrs: ", error);
        backends.push_back(std::make_unique<net::TcpShardBackend>(
            host, port, opts.timeoutMs));
    }
    if (backends.empty())
        hcm_fatal("front: --shard-addrs named no shards");

    net::FrontDoorOptions fopts;
    fopts.scrapeIntervalMs = opts.scrapeIntervalMs;
    net::FrontDoor front(std::move(backends), fopts);
    net::TcpServerOptions sopts;
    sopts.host = opts.host;
    sopts.port = static_cast<std::uint16_t>(opts.port);
    net::TcpServer server(sopts, [&front](const std::string &request) {
        return front.handle(request);
    });
    std::string error;
    if (!server.start(&error))
        hcm_fatal("front: ", error);
    std::cout << "listening " << opts.host << ":" << server.port()
              << "\n"
              << std::flush;
    waitForShutdownSignal();
    server.stop();
    writeMetricsFile(opts, nullptr);
    return 0;
}

int
cmdLoadgen(const std::string &mix_path, const Options &opts)
{
    applyLogOptions(opts, false);
    TraceSession trace(opts);
    ProfileSession profile(opts);
    if (opts.connect.empty())
        hcm_fatal("loadgen: --connect <host:port> is required");
    std::string host;
    std::uint16_t port = 0;
    std::string error;
    if (!net::parseHostPort(opts.connect, &host, &port, &error))
        hcm_fatal("loadgen: --connect: ", error);

    auto requests = net::parseMixText(readFileOrDie(mix_path), &error);
    if (requests.empty())
        hcm_fatal(mix_path, ": ", error);

    net::LoadGenOptions lopts;
    lopts.host = host;
    lopts.port = port;
    lopts.rate = opts.rate;
    lopts.concurrency = opts.concurrency;
    lopts.repeat = opts.repeat;
    lopts.timeoutMs = opts.timeoutMs;
    lopts.outputPath = opts.output;
    lopts.samplesPath = opts.samplesOut;
    lopts.tagRequestIds = !opts.noRequestIds;
    net::LoadGenReport report;
    if (!net::runLoadGen(requests, lopts, &report, &error))
        hcm_fatal("loadgen: ", error);
    std::cout << net::formatLoadGenReport(report);
    writeMetricsFile(opts, nullptr);
    // A run where nothing got through is a failed run: scripts keying
    // on the exit code should not need to parse the report.
    return report.sent > 0 && report.transportFailures == report.sent
               ? 1
               : 0;
}

int
cmdTop(const Options &opts)
{
    applyLogOptions(opts, false);
    if (opts.connect.empty())
        hcm_fatal("top: --connect <host:port> is required");
    std::string host;
    std::uint16_t port = 0;
    std::string error;
    if (!net::parseHostPort(opts.connect, &host, &port, &error))
        hcm_fatal("top: --connect: ", error);
    net::TcpShardBackend backend(
        host, port, opts.timeoutMs);

    std::signal(SIGINT, handleShutdownSignal);
    std::signal(SIGTERM, handleShutdownSignal);
    while (true) {
        std::string response;
        if (!backend.roundTrip("{\"type\":\"fleet\"}", &response,
                               &error)) {
            if (opts.once)
                hcm_fatal("top: ", error);
            // Live mode keeps polling: a restarting front door should
            // not kill the dashboard watching it.
            std::cout << "fleet unavailable: " << error << "\n"
                      << std::flush;
        } else {
            std::vector<net::ShardStatus> shards;
            net::FrontCounters front;
            if (!net::parseFleetResponse(response, &shards, &front,
                                         &error))
                hcm_fatal("top: ", error);
            std::ostringstream screen;
            screen << net::renderFleetTable(shards);
            screen << "front: routed " << front.routed << "  shed "
                   << front.shed << "  shard_unavailable "
                   << front.shardUnavailable << "\n";
            if (!opts.once)
                std::cout << "\033[H\033[2J"; // redraw in place
            std::cout << screen.str() << std::flush;
        }
        if (opts.once)
            return 0;
        // Compared in whole milliseconds: a deadline the clock could
        // not represent would wrap and the screen would never pause.
        auto start = std::chrono::steady_clock::now();
        auto waited = [&] {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        };
        while (!g_shutdownRequested && waited() < opts.intervalMs)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        if (g_shutdownRequested)
            return 0;
    }
}

int
cmdBench(const Options &opts)
{
    applyLogOptions(opts, false);
    prof::BenchRunOptions bopts;
    bopts.benchDir = opts.benchDir;
    bopts.only = opts.only;
    bopts.smoke = opts.smoke;
    bopts.repetitions = opts.repetitions;
    // Stamp counter availability into the results metadata so a diff
    // reader can tell "no counter columns" from "host had none".
    hwc::Availability avail = hwc::counterAvailability();
    bopts.counters.available = avail.available;
    bopts.counters.reason = avail.reason;
    bopts.counters.perfEventParanoid = avail.perfEventParanoid;
    std::ostringstream merged;
    std::string error;
    if (!prof::runBenchPipeline(bopts, merged, &error))
        hcm_fatal("bench: ", error);
    writeOutput(opts.results, "results file ",
                [&](std::ostream &out) { out << merged.str(); });
    hcm_inform("bench results written",
               logField("file", opts.results),
               logField("smoke", opts.smoke ? "yes" : "no"));
    return 0;
}

hcm::JsonValue
loadBenchResults(const std::string &path)
{
    std::string error;
    auto doc = JsonValue::parse(readFileOrDie(path), &error);
    if (!doc)
        hcm_fatal(path, ": not valid JSON: ", error);
    return *doc;
}

int
cmdBenchDiff(const std::string &old_path, const std::string &new_path,
             const Options &opts)
{
    applyLogOptions(opts, false);
    JsonValue old_doc = loadBenchResults(old_path);
    JsonValue new_doc = loadBenchResults(new_path);
    prof::BenchDiffOptions dopts;
    dopts.tolerancePct = opts.tolerancePct;
    dopts.minTimeNs = opts.minTimeNs;
    dopts.counterTolerancePct = opts.counterTolerancePct;
    std::string error;
    auto report =
        prof::diffBenchResults(old_doc, new_doc, dopts, &error);
    if (!report)
        hcm_fatal("bench-diff: ", error);
    prof::writeDiffReport(std::cout, *report, dopts);
    return report->hasRegressions() ? 1 : 0;
}

int
cmdList()
{
    std::cout << "devices:";
    for (dev::DeviceId id : dev::allDevices())
        std::cout << " " << dev::deviceName(id);
    std::cout << "\nworkloads: mmm, bs, fft:N (N = 64, 1024, 16384; "
                 "traffic takes any power of two)\n";
    std::cout << "scenarios: baseline";
    for (const core::Scenario &s : core::alternativeScenarios())
        std::cout << ", " << s.name;
    std::cout << "\nnodes:";
    for (const auto &node : itrs::nodeTable())
        std::cout << " " << node.label();
    std::cout << "\nstudies:";
    for (const std::string &name : report::studyNames())
        std::cout << " " << name;
    std::cout << "\n";
    return 0;
}

int
cmdStudy(const std::vector<std::string> &args)
{
    std::string names;
    for (const std::string &name : report::studyNames())
        names += (names.empty() ? "" : ", ") + name;
    if (args.size() != 2)
        hcm_fatal("usage: hcm study <name> (", names, ")");
    if (!report::writeStudy(std::cout, args[1]))
        hcm_fatal("no study '", args[1], "' (", names, ")");
    return 0;
}

/** Run the verb @p args names; returns its exit status. */
int
runCommand(const std::vector<std::string> &args)
{
    if (args.empty() || args[0] == "help" || args[0] == "--help" ||
        args[0] == "-h") {
        std::cout << kUsage;
        return 0;
    }
    const std::string &cmd = args[0];
    if (cmd == "table") {
        if (args.size() < 2)
            hcm_fatal("usage: hcm table <1-6>");
        return cmdTable(numberOrDie<int>("table", args[1]));
    }
    if (cmd == "figure") {
        if (args.size() < 2)
            hcm_fatal("usage: hcm figure <2-10>");
        return cmdFigure(numberOrDie<int>("figure", args[1]),
                         parseOptions(args, 2));
    }
    if (cmd == "project")
        return cmdProject(parseOptions(args, 1));
    if (cmd == "sweep")
        return cmdSweep(parseOptions(args, 1));
    if (cmd == "optimize")
        return cmdOptimize(parseOptions(args, 1));
    if (cmd == "pareto")
        return cmdPareto(parseOptions(args, 1));
    if (cmd == "simulate")
        return cmdSimulate(parseOptions(args, 1));
    if (cmd == "traffic")
        return cmdTraffic(parseOptions(args, 1, svc::parseWorkloadSpec));
    if (cmd == "mixed")
        return cmdMixed(parseOptions(args, 1));
    if (cmd == "crossover")
        return cmdCrossover(parseOptions(args, 1));
    if (cmd == "roofline")
        return cmdRoofline(parseOptions(args, 1));
    if (cmd == "scenarios") {
        Options opts = parseOptions(args, 1);
        report::writeScenarioSummary(std::cout, opts.workload, opts.f);
        return 0;
    }
    if (cmd == "study")
        return cmdStudy(args);
    if (cmd == "batch") {
        if (args.size() < 2 || args[1].rfind("--", 0) == 0)
            hcm_fatal("usage: hcm batch <requests.json> [options]");
        return cmdBatch(args[1], parseOptions(args, 2));
    }
    if (cmd == "serve")
        return cmdServe(parseOptions(args, 1));
    if (cmd == "front")
        return cmdFront(parseOptions(args, 1));
    if (cmd == "loadgen") {
        if (args.size() < 2 || args[1].rfind("--", 0) == 0)
            hcm_fatal("usage: hcm loadgen <mix.jsonl> --connect "
                      "<host:port> [options]");
        return cmdLoadgen(args[1], parseOptions(args, 2));
    }
    if (cmd == "bench")
        return cmdBench(parseOptions(args, 1));
    if (cmd == "bench-diff") {
        if (args.size() < 3 || args[1].rfind("--", 0) == 0 ||
            args[2].rfind("--", 0) == 0)
            hcm_fatal("usage: hcm bench-diff <old.json> <new.json> "
                      "[options]");
        return cmdBenchDiff(args[1], args[2], parseOptions(args, 3));
    }
    if (cmd == "top")
        return cmdTop(parseOptions(args, 1));
    if (cmd == "trace-merge") {
        std::vector<std::string> paths;
        std::size_t i = 1;
        while (i < args.size() && args[i].rfind("--", 0) != 0)
            paths.push_back(args[i++]);
        if (paths.empty())
            hcm_fatal("usage: hcm trace-merge <trace.json...> "
                      "[--output merged.json]");
        return cmdTraceMerge(paths, parseOptions(args, i));
    }
    if (cmd == "validate-trace") {
        if (args.size() < 2)
            hcm_fatal("usage: hcm validate-trace <trace.json>");
        return cmdValidateTrace(args[1]);
    }
    if (cmd == "list")
        return cmdList();
    hcm_fatal("unknown command '", cmd, "' (see hcm help)");
}

} // namespace

int
main(int argc, char **argv)
{
    // Identity gauge first, so every metrics export — including ones
    // from commands that never touch the engine — carries the build.
    hcm::obs::registerBuildInfoMetric(hcm::obs::globalRegistry());
    hcm::obs::registerProcessMetrics(hcm::obs::globalRegistry());
    int status = runCommand({argv + 1, argv + argc});
    // Every verb's stdout ends here: a failed write (a full disk) is
    // fatal, whichever verb wrote it.
    if (!std::cout.flush())
        hcm_fatal("cannot write stdout");
    return status;
}
