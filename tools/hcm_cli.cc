/**
 * @file
 * `hcm` — command-line front end to the library. Regenerates any paper
 * table or figure, runs projections and single design points for
 * arbitrary (workload, f, scenario) combinations, and lists the model's
 * vocabulary. See `hcm help` for usage.
 *
 * kOptions and kVerbs are the one statement of the command line: each
 * option's spelling, value, help and parser, and each verb's arguments,
 * the options it reads, its run function and its help. runCommand()
 * parses against them and `hcm help` prints them.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
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

/** Every option, in kOptions' order. */
enum class Opt : std::uint8_t {
    Workload, F, Scenario, Node, Device, Energy, Json, Csv, Chunks, Cache,
    Slot, Shared, Target, Out,
    Workloads, Fractions, Scenarios, Jobs, Progress, Format, Output,
    Threads, CacheEntries, SlowQueryMs, DeadlineMs, AdmissionWaitMs,
    FaultSpec, ResultsOnly,
    Port, Host, Shards, ShardId, ShardAddrs, Connect, Rate, Concurrency,
    Repeat, TimeoutMs, ScrapeIntervalMs, FlightRecorderSize, SamplesOut,
    NoRequestIds, IntervalMs, Once,
    BenchDir, Only, Smoke, Repetitions, Results, TolerancePct, MinTimeNs,
    CounterTolerancePct,
    TraceOut, ProfileOut, ProfileFormat, MetricsOut, MetricsFormat,
    Verbose, Measured,
};

/** A set of options, one bit per Opt. */
using OptSet = std::uint64_t;

constexpr OptSet
of(std::initializer_list<Opt> opts)
{
    OptSet set = 0;
    for (Opt o : opts)
        set |= OptSet{1} << static_cast<unsigned>(o);
    return set;
}

/** Counts, and durations in the unit their option names. */
using Count = std::uint64_t;
using DeviceChoice = std::optional<dev::DeviceId>;

/** An option's value; its row's default fixes the alternative. */
using Value = std::variant<bool, int, Count, double, std::string,
                           std::vector<std::string>, wl::Workload,
                           DeviceChoice>;

/** svc's workload parser @p parse on @p spec; fatal on its error. */
wl::Workload
workloadOrDie(const std::string &spec,
              std::optional<wl::Workload> (*parse)(const std::string &,
                                                   std::string *))
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

/**
 * Parse the value @p text that followed @p flag into @p value, fatal
 * when it is bad. @p text is null for an option that takes no value: a
 * switch turns on, a count (--verbose) counts.
 */
void
byType(Value &value, const std::string &flag, const std::string *text)
{
    std::visit(
        [&](auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, bool>)
                v = true;
            else if constexpr (std::is_same_v<T, Count>)
                v = text ? numberOrDie<T>(flag, *text) : v + 1;
            else if constexpr (std::is_arithmetic_v<T>)
                v = numberOrDie<T>(flag, *text);
            else if constexpr (std::is_same_v<T, std::string>)
                v = *text;
            else if constexpr (std::is_same_v<T, std::vector<std::string>>)
                v.push_back(*text);
            else
                hcm_panic(flag, "'s kOptions row needs its own setter");
        },
        value);
}

using Setter = decltype(&byType);

/** A number in [Min, Max]. */
template <typename T, T Min, T Max = std::numeric_limits<T>::max()>
void
bounded(Value &value, const std::string &flag, const std::string *text)
{
    T n = numberOrDie<T>(flag, *text);
    if (n < Min && Max == std::numeric_limits<T>::max())
        hcm_fatal(flag, " must be >= ", Min);
    if (!(n >= Min && n <= Max))
        hcm_fatal(flag, " must lie in [", Min, ", ", Max, "], got ", n);
    value = n;
}

/** Milliseconds, kept as whole nanoseconds (svc::msToNs's checks). */
void
nanoseconds(Value &value, const std::string &flag, const std::string *text)
{
    std::string error;
    auto ns = svc::msToNs(numberOrDie<double>(flag, *text), &error);
    if (!ns)
        hcm_fatal(flag, " ", error);
    value = *ns;
}

/**
 * Whole milliseconds, at least @p Min, checked like nanoseconds and
 * truncated; a positive value under 1 ms would truncate to 0, "none".
 */
template <Count Min = 0>
void
milliseconds(Value &value, const std::string &flag, const std::string *text)
{
    nanoseconds(value, flag, text);
    Count ns = std::get<Count>(value);
    if (ns > 0 && ns < 1000000)
        hcm_fatal(flag, " must be at least 1 ms when positive, got ", *text);
    if (ns / 1000000 < Min)
        hcm_fatal(flag, " must be >= ", Min);
    value = ns / 1000000;
}

/** A string literal as a template argument. */
template <std::size_t N>
struct Literal
{
    constexpr Literal(const char (&s)[N]) { std::copy_n(s, N, text); }
    char text[N];
};

/** One of two spellings. */
template <Literal A, Literal B>
void
oneOf(Value &value, const std::string &flag, const std::string *text)
{
    if (*text != A.text && *text != B.text)
        hcm_fatal(flag, " must be ", A.text, " or ", B.text, ", not '",
                  *text, "'");
    value = *text;
}

/** One row of the option table. */
struct Option
{
    Opt id;
    const char *flag;
    const char *value;  ///< value name; nullptr: the option takes none
    Value initial;      ///< the value when the option is absent
    const char *help;   ///< help lines, '\n' between; "": not listed
    Setter set = byType;
};

const Option kOptions[] = {
    {Opt::Workload, "--workload", "<mmm|bs|fft:N>", wl::Workload::fft(1024),
     "kernel (default fft:1024); N is a\n"
     "Table 5 size (64, 1024, 16384), or any\n"
     "power of two for traffic",
     // Any FFT size here; modelWorkload() narrows it to Table 5's.
     [](Value &v, const std::string &, const std::string *t) {
         v = workloadOrDie(*t, svc::parseWorkloadSpec);
     }},
    {Opt::F, "--f", "<value>", 0.99, "parallel fraction (default 0.99)",
     bounded<double, 0.0, 1.0>},
    {Opt::Scenario, "--scenario", "<name>", "baseline",
     "baseline | bandwidth-90 | bandwidth-1tb |\n"
     "half-area | power-200w | power-10w |\n"
     "alpha-2.25 | multi-amdahl | thermal-85c |\n"
     "thermal-3d (default baseline)",
     // Validate only: crossover echoes the name as typed.
     [](Value &v, const std::string &, const std::string *t) {
         if (!core::findScenario(*t))
             hcm_fatal("unknown scenario '", *t, "'");
         v = *t;
     }},
    {Opt::Node, "--node", "<nm>", 22.0,
     "40|32|22|16|11 (optimize, pareto and\n"
     "simulate; default 22)",
     [](Value &v, const std::string &flag, const std::string *t) {
         double node = numberOrDie<double>(flag, *t);
         if (!itrs::findNode(node))
             hcm_fatal("unknown node ", node,
                       " (expected 40, 32, 22, 16, or 11)");
         v = node;
     }},
    {Opt::Device, "--device", "<name>", DeviceChoice(),
     "corei7-baseline CMPs are always shown;\n"
     "restricts HETs to one device\n"
     "(gtx285|gtx480|r5870|lx760|asic)",
     [](Value &v, const std::string &, const std::string *t) {
         v = DeviceChoice(deviceOrDie(*t));
     }},
    {Opt::Energy, "--energy", nullptr, false,
     "report normalized energy instead of speedup"},
    {Opt::Json, "--json", nullptr, false,
     "project: emit JSON instead of a table"},
    {Opt::Csv, "--csv", nullptr, false,
     "project: emit the sweep CSV schema via the\n"
     "serial projection path (the byte-exact\n"
     "reference for `hcm sweep`)"},
    {Opt::Chunks, "--chunks", "<count>", Count{20000},
     "parallel chunks for simulate (default 20000)"},
    {Opt::Cache, "--cache", "<KiB>", Count{64},
     "on-chip capacity for traffic (default 64)"},
    {Opt::Slot, "--slot", "<dev:workload:frac>", std::vector<std::string>(),
     "mixed: one kernel slot, e.g.\n"
     "asic:mmm:0.5 or gtx285:fft:1024:0.45"},
    {Opt::Shared, "--shared", nullptr, false,
     "mixed: one fabric reused by every phase"},
    {Opt::Target, "--target", "<ratio>", 1.5,
     "crossover: required HET/CMP margin\n"
     "(default 1.5)"},
    {Opt::Out, "--out", "<dir>", "bench_out",
     "output directory for figure files"},

    {Opt::Workloads, "--workloads", "<list>", sweep::SpecStrings{}.workloads,
     "comma-separated workload set, e.g.\n"
     "mmm,bs,fft:1024 (default mmm,bs,fft:1024)"},
    {Opt::Fractions, "--fractions", "<list>", sweep::SpecStrings{}.fractions,
     "comma-separated parallel fractions in\n"
     "[0,1] (default 0.5,0.9,0.99,0.999)"},
    {Opt::Scenarios, "--scenarios", "<list>", sweep::SpecStrings{}.scenarios,
     "comma-separated scenario names, or \"all\"\n"
     "for baseline + every alternative incl.\n"
     "multi-amdahl and the thermal scenarios;\n"
     "duplicates run once (default baseline)"},
    {Opt::Jobs, "--jobs", "<n>", Count{0},
     "worker threads (default: hardware;\n"
     "1 = run serially inline)"},
    {Opt::Progress, "--progress", nullptr, false,
     "report completed/total units on stderr"},
    {Opt::Format, "--format", "<csv|json>", "csv",
     "output format (default csv)", oneOf<"csv", "json">},
    {Opt::Output, "--output", "<file>", "",
     "write results there instead of stdout"},

    {Opt::Threads, "--threads", "<n>", Count{0},
     "worker threads (default: hardware)"},
    {Opt::CacheEntries, "--cache-entries", "<n>", Count{4096},
     "memoization cache capacity (default 4096;\n"
     "0 disables the cache)"},
    {Opt::SlowQueryMs, "--slow-query-ms", "<ms>", Count{0},
     "log queries slower than this (queue wait\n"
     "+ eval) and count them in\n"
     "hcm_svc_slow_queries_total (default: off)",
     nanoseconds},
    {Opt::DeadlineMs, "--deadline-ms", "<ms>", Count{0},
     "default per-query deadline; late queries\n"
     "answer {\"error\":...,\"type\":\n"
     "\"deadline_exceeded\"} (per-request\n"
     "\"deadlineMs\" wins; default: none)",
     nanoseconds},
    {Opt::AdmissionWaitMs, "--admission-wait-ms", "<ms>", Count{5000000000},
     "how long a query may wait at a full\n"
     "worker queue before an \"overloaded\"\n"
     "error with a retryAfterMs hint (0 =\n"
     "reject immediately; default 5000)",
     nanoseconds},
    {Opt::FaultSpec, "--fault-spec", "<spec>", "",
     "deterministic fault injection for\n"
     "testing, e.g. eval:throw:nth=2 or\n"
     "eval:delay=50 (sites: eval, dequeue;\n"
     "comma-separate rules)"},
    {Opt::ResultsOnly, "--results-only", nullptr, false,
     "batch: emit exactly {\"results\":[...]}\n"
     "with no metrics member (the byte-exact\n"
     "reference for loadgen --output)"},

    {Opt::Port, "--port", "<n>", 0,
     "serve/front: listen on this TCP port\n"
     "(0 = ephemeral; serve without --port\n"
     "keeps the stdin/stdout loop)",
     bounded<int, 0, 65535>},
    {Opt::Host, "--host", "<addr>", "127.0.0.1",
     "serve/front: listen address (default\n"
     "127.0.0.1; loadgen and top take\n"
     "--connect)"},
    {Opt::Shards, "--shards", "<n>", Count{1},
     "serve --port: shard the key space across\n"
     "n engines behind one in-process front\n"
     "door (default 1)",
     bounded<Count, 1>},
    {Opt::ShardId, "--shard-id", "<label>", "",
     "serve: tag this engine's thread-pool\n"
     "metrics with a shard label"},
    {Opt::ShardAddrs, "--shard-addrs", "<list>", "",
     "front: comma-separated host:port shard\n"
     "endpoints (ring order independent)"},
    {Opt::Connect, "--connect", "<host:port>", "",
     "loadgen: endpoint to replay against"},
    {Opt::Rate, "--rate", "<qps>", 0.0,
     "loadgen: target request rate\n"
     "(default 0 = as fast as possible)",
     bounded<double, 0.0>},
    {Opt::Concurrency, "--concurrency", "<n>", Count{4},
     "loadgen: concurrent connections\n"
     "(default 4)"},
    {Opt::Repeat, "--repeat", "<n>", Count{1},
     "loadgen: replay the mix n times\n"
     "(default 1)"},
    {Opt::TimeoutMs, "--timeout-ms", "<ms>", Count{5000},
     "net I/O timeout: every connect/read/write\n"
     "is bounded by this (default 5000)",
     milliseconds<>},
    {Opt::ScrapeIntervalMs, "--scrape-interval-ms", "<ms>", Count{1000},
     "front / serve --shards: period of the\n"
     "background fleet scrape feeding the\n"
     "{\"type\":\"fleet\"} verb (0 = scrape on\n"
     "demand per request; default 1000)",
     milliseconds<>},
    {Opt::FlightRecorderSize, "--flight-recorder-size", "<n>", Count{256},
     "serve/front: keep the last n completed\n"
     "requests (id, latency breakdown,\n"
     "outcome) for the {\"type\":\"requests\"}\n"
     "verb (0 = off; default 256)"},
    {Opt::SamplesOut, "--samples-out", "<file>", "",
     "loadgen: write one JSONL sample per\n"
     "request — index, requestId, latencyMs,\n"
     "outcome — joinable against merged\n"
     "traces and shard flight recorders"},
    {Opt::NoRequestIds, "--no-request-ids", nullptr, false,
     "loadgen: do not mint/splice requestIds\n"
     "(sends become byte-identical to the mix)"},
    {Opt::IntervalMs, "--interval-ms", "<ms>", Count{1000},
     "top: redraw period (default 1000)", milliseconds<1>},
    {Opt::Once, "--once", nullptr, false,
     "top: print one snapshot and exit\n"
     "(exit 1 when the front door is\n"
     "unreachable)"},

    {Opt::BenchDir, "--bench-dir", "<dir>", "build/bench",
     "directory with the gbench binaries and\n"
     "manifest (default build/bench)"},
    {Opt::Only, "--only", "<substr>", "",
     "run only binaries whose name contains this"},
    {Opt::Smoke, "--smoke", nullptr, false,
     "fast sweep: minimal measurement time,\n"
     "one repetition"},
    {Opt::Repetitions, "--repetitions", "<n>", 0,
     "repetitions per benchmark (default:\n"
     "3, or 1 with --smoke)"},
    {Opt::Results, "--results", "<file>", "BENCH_RESULTS.json",
     "where to write the merged results\n"
     "(default BENCH_RESULTS.json)"},
    {Opt::TolerancePct, "--tolerance-pct", "<pct>", 10.0,
     "bench-diff: median slowdown beyond this\n"
     "is a regression (default 10)"},
    {Opt::MinTimeNs, "--min-time-ns", "<ns>", 0.0,
     "bench-diff: ignore benchmarks faster than\n"
     "this in both files (default 0)"},
    {Opt::CounterTolerancePct, "--counter-tolerance-pct", "<p>", 0.0,
     "bench-diff: median IPC drop beyond this\n"
     "percentage is a regression; gates only\n"
     "benchmarks with counter data in both\n"
     "files (default 0 = off)",
     bounded<double, 0.0>},

    {Opt::TraceOut, "--trace-out", "<file>", "",
     "enable span tracing and write a Chrome\n"
     "trace_event JSON on exit (load it in\n"
     "chrome://tracing or ui.perfetto.dev)"},
    {Opt::ProfileOut, "--profile-out", "<file>", "",
     "enable the scoped profiler and write the\n"
     "aggregated profile on exit"},
    {Opt::ProfileFormat, "--profile-format", "<fmt>", "collapsed",
     "collapsed (flamegraph.pl/speedscope\n"
     "input) | json (default collapsed)",
     oneOf<"collapsed", "json">},
    {Opt::MetricsOut, "--metrics-out", "<file>", "",
     "write collected metrics on exit"},
    {Opt::MetricsFormat, "--metrics-format", "<fmt>", "json",
     "json | prom (default json)", oneOf<"json", "prom">},
    {Opt::Verbose, "--verbose", nullptr, Count{0},
     "lower the log threshold one step per\n"
     "occurrence (-> Info -> Debug;\n"
     "HCM_LOG_LEVEL wins when set; serve\n"
     "and front default to warn)"},
    // Roofline's own help lines describe it.
    {Opt::Measured, "--measured", nullptr, false, ""},
};
constexpr std::size_t kOptionCount = std::size(kOptions);
static_assert(kOptionCount == static_cast<std::size_t>(Opt::Measured) + 1 &&
                  kOptionCount <= 64,
              "one kOptions row per Opt, one OptSet bit per row");

/** `hcm help`'s option sections, each from its first option up to the
 *  next section's: a title, and a note after the verbs that read it. */
struct Section
{
    Opt first;
    const char *title;
    const char *note = nullptr;
};

const Section kSections[] = {
    {Opt::Workload, "options"},
    {Opt::Workloads, "options"},
    {Opt::Threads, "options"},
    {Opt::Port, "options", "networked tier"},
    {Opt::BenchDir, "options"},
    {Opt::TraceOut, "observability"},
};

const char *
flag(Opt o)
{
    const Option &row = kOptions[static_cast<std::size_t>(o)];
    hcm_assert(row.id == o, "kOptions is out of Opt order at ", row.flag);
    return row.flag;
}

class Invocation;

/** One row of the verb table. */
struct Verb
{
    const char *name;
    /** Positional arguments as help shows them: one per "<"; one
     *  ending "...>" takes one or more. */
    const char *args;
    OptSet reads;       ///< the options the verb reads; it refuses others
    int (*run)(Invocation &);
    const char *help;   ///< help lines, '\n' between them
    LogLevel log = LogLevel::Inform; ///< threshold before --verbose
};

/** One run of a verb: its positional arguments and option values. */
class Invocation
{
  public:
    /** Parse @p args, the verb's name first; fatal unless they are the
     *  verb's positional arguments, then options it reads. */
    Invocation(const Verb &verb, const std::vector<std::string> &args);

    bool reads(Opt o) const { return (verb.reads & of({o})) != 0; }
    bool given(Opt o) const { return (_given & of({o})) != 0; }

    /** @p o's value, its default when absent. Reading an option the
     *  verb's row does not list is a bug in kVerbs. */
    template <typename T>
    const T &
    get(Opt o) const
    {
        hcm_assert(reads(o), verb.name, " reads ", flag(o),
                   ", which its kVerbs row does not list");
        return std::get<T>(_values[static_cast<std::size_t>(o)]);
    }
    const std::string &text(Opt o) const { return get<std::string>(o); }
    double number(Opt o) const { return get<double>(o); }
    Count count(Opt o) const { return get<Count>(o); }
    bool on(Opt o) const { return get<bool>(o); }

    /** Fatal "<verb>: <args...>". */
    template <typename... Args>
    [[noreturn]] void
    fail(const Args &...args) const
    {
        hcm_fatal(verb.name, ": ", args...);
    }

    /** Fatal "<verb>: <flag> <why>" when an option in @p opts was
     *  given: the verb reads it, but not in the mode it runs in. */
    void
    refuse(OptSet opts, const std::string &why) const
    {
        for (const Option &row : kOptions)
            if (given(row.id) && (opts & of({row.id})))
                fail(row.flag, " ", why);
    }

    svc::QueryEngine &
    addEngine(const svc::EngineOptions &options)
    {
        engines.push_back(std::make_unique<svc::QueryEngine>(options));
        return *engines.back();
    }

    const Verb &verb;
    std::vector<std::string> positionals;
    /** The query engines the run made; runCommand() writes
     *  --metrics-out from them, then joins them. */
    std::vector<std::unique_ptr<svc::QueryEngine>> engines;

  private:
    std::array<Value, kOptionCount> _values;
    OptSet _given = 0;
};

Invocation::Invocation(const Verb &v, const std::vector<std::string> &args)
    : verb(v)
{
    for (const Option &row : kOptions)
        _values[static_cast<std::size_t>(row.id)] = row.initial;
    std::size_t i = 1;
    while (i < args.size() && args[i].rfind("--", 0) != 0)
        positionals.push_back(args[i++]);
    std::string_view usage = verb.args;
    auto wanted = static_cast<std::size_t>(
        std::count(usage.begin(), usage.end(), '<'));
    if (usage.find("...>") != usage.npos ? positionals.size() < wanted
                                         : positionals.size() != wanted)
        hcm_fatal("usage: hcm ", verb.name, usage.empty() ? "" : " ", usage,
                  verb.reads ? " [options]" : "");
    for (; i < args.size(); ++i) {
        const Option *row =
            std::find_if(std::begin(kOptions), std::end(kOptions),
                         [&](const Option &o) { return args[i] == o.flag; });
        if (row == std::end(kOptions))
            hcm_fatal("unknown option '", args[i], "' (see hcm help)");
        if (!reads(row->id))
            hcm_fatal(verb.name, " does not take ", row->flag,
                      " (see hcm help)");
        if (row->value && ++i == args.size())
            hcm_fatal("missing value after ", row->flag);
        row->set(_values[static_cast<std::size_t>(row->id)], row->flag,
                 row->value ? &args[i] : nullptr);
        _given |= of({row->id});
    }
}

/** What every point-design verb reads. */
constexpr OptSet kPoint =
    of({Opt::Workload, Opt::F, Opt::Scenario, Opt::Node});
/** The query engine's knobs. */
constexpr OptSet kEngine =
    of({Opt::Threads, Opt::CacheEntries, Opt::SlowQueryMs, Opt::DeadlineMs,
        Opt::AdmissionWaitMs, Opt::FaultSpec});
/** What runCommand() sets up and writes around any run. */
constexpr OptSet kObserve =
    of({Opt::TraceOut, Opt::ProfileOut, Opt::ProfileFormat,
        Opt::MetricsOut, Opt::MetricsFormat, Opt::Verbose});

/** --workload for the model: one of Table 5's sizes. */
wl::Workload
modelWorkload(const Invocation &a)
{
    const wl::Workload &w = a.get<wl::Workload>(Opt::Workload);
    std::string error;
    if (!svc::checkCalibrated(w, &error))
        hcm_fatal(error);
    return w;
}

const core::Scenario &
scenarioOf(const Invocation &a)
{
    return core::scenarioByName(a.text(Opt::Scenario));
}

const itrs::NodeParams &
nodeOf(const Invocation &a)
{
    return itrs::nodeParams(a.number(Opt::Node));
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

int
cmdTable(Invocation &a)
{
    int which = numberOrDie<int>(a.verb.name, a.positionals[0]);
    if (!report::writeTable(std::cout, which))
        hcm_fatal("no table ", which, " (1-6)");
    return 0;
}

int
cmdFigure(Invocation &a)
{
    int which = numberOrDie<int>(a.verb.name, a.positionals[0]);
    std::optional<plot::Figure> fig = report::figure(which);
    if (!fig)
        hcm_fatal("no figure ", which, " (2-10)");
    const std::string &out = a.text(Opt::Out);
    fig->renderAscii(std::cout);
    fig->writeFiles(out);
    std::cout << "[files] " << out << "/" << fig->id() << ".csv\n";
    report::writeFigureRows(std::cout, which);
    return 0;
}

int
cmdProject(Invocation &a)
{
    // --csv and --json each print every row, in their own schema.
    for (Opt raw : {Opt::Csv, Opt::Json})
        if (a.given(raw))
            a.refuse(of({Opt::Csv, Opt::Json, Opt::Energy, Opt::Device}) &
                         ~of({raw}),
                     std::string("does not apply with ") + flag(raw));
    wl::Workload w = modelWorkload(a);
    double f = a.number(Opt::F);
    const core::Scenario &scenario = scenarioOf(a);
    if (a.on(Opt::Csv)) {
        sweep::writeSweepCsv(std::cout,
                             sweep::projectionReference(w, f, scenario));
        return 0;
    }
    if (a.on(Opt::Json)) {
        report::exportProjectionJson(std::cout, w, {f}, scenario);
        return 0;
    }
    bool energy = a.on(Opt::Energy);
    const auto &device = a.get<DeviceChoice>(Opt::Device);
    TextTable t((energy ? std::string("Energy (BCE@40nm units)")
                        : std::string("Speedup (vs 1 BCE)")) +
                ", " + w.name() + ", f=" + fmtFixed(f, 4) +
                ", scenario=" + scenario.name);
    std::vector<std::string> headers = {"Organization"};
    for (const auto &node : itrs::nodeTable())
        headers.push_back(node.label());
    t.setHeaders(headers);
    for (const auto &series : core::projectAll(w, f, scenario)) {
        if (!series.org.matchesDevice(device))
            continue;
        std::vector<std::string> row = {series.org.name};
        for (const core::NodePoint &pt : series.points) {
            if (!pt.design.feasible) {
                row.push_back("infeasible");
                continue;
            }
            double v = energy ? pt.energyNormalized() : pt.design.speedup;
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
cmdSweep(Invocation &a)
{
    std::string error;
    auto spec = sweep::parseSweepSpec(
        {a.text(Opt::Workloads),
         a.text(Opt::Fractions),
         a.text(Opt::Scenarios)},
        &error);
    if (!spec)
        a.fail(error);

    sweep::SweepOptions sopts;
    sopts.jobs = a.count(Opt::Jobs);
    if (a.on(Opt::Progress))
        sopts.progress = [](std::size_t done, std::size_t total) {
            std::cerr << "\rsweep: " << done << "/" << total
                      << " units" << (done == total ? "\n" : "")
                      << std::flush;
        };

    sweep::SweepResult result = sweep::runSweep(*spec, sopts);

    bool json = a.text(Opt::Format) == "json";
    auto write = [&](std::ostream &out) {
        if (json)
            sweep::writeSweepJson(out, result);
        else
            sweep::writeSweepCsv(out, result);
    };
    const std::string &output = a.text(Opt::Output);
    if (output.empty()) {
        write(std::cout);
    } else {
        writeOutput(output, "output file ", write);
        hcm_inform("sweep written", logField("file", output),
                   logField("rows", result.rows.size()),
                   logField("jobs", result.jobs));
    }
    return 0;
}

int
cmdOptimize(Invocation &a)
{
    wl::Workload w = modelWorkload(a);
    double f = a.number(Opt::F);
    const core::Scenario &scenario = scenarioOf(a);
    const itrs::NodeParams &node = nodeOf(a);
    core::Budget budget = core::applyScenario(scenario, node, w).budget;

    std::cout << "budgets at " << node.label() << " (BCE units): A="
              << fmtSig(budget.area, 3) << " P=" << fmtSig(budget.power, 3)
              << " B=" << fmtSig(budget.bandwidth, 3);
    if (scenario.thermalBounded())
        std::cout << " TH=" << fmtSig(budget.thermal, 3) << " ("
                  << fmtSig(core::thermalDynamicPowerW(scenario), 3)
                  << " W dynamic at " << fmtSig(scenario.maxJunctionC, 3)
                  << " C)";
    std::cout << "\n\n";

    TextTable t("Best designs, " + w.name() + ", f=" + fmtFixed(f, 4));
    t.setHeaders({"Organization", "r", "n", "speedup", "limiter",
                  "energy (norm.)"});
    for (const core::ParetoPoint &p : core::bestDesigns(
             w, f, node, scenario,
             a.get<DeviceChoice>(Opt::Device))) {
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
cmdPareto(Invocation &a)
{
    wl::Workload w = modelWorkload(a);
    double f = a.number(Opt::F);
    const itrs::NodeParams &node = nodeOf(a);
    auto all = core::enumerateDesigns(w, f, node, scenarioOf(a));
    auto frontier = core::paretoFrontier(all);
    TextTable t("Pareto frontier, " + w.name() + ", f=" + fmtFixed(f, 4) +
                ", " + node.label() + " (" +
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
cmdSimulate(Invocation &a)
{
    const auto &device = a.get<DeviceChoice>(Opt::Device);
    if (!device)
        hcm_fatal(a.verb.name, " needs ", flag(Opt::Device),
                  " (the HET fabric to check)");
    wl::Workload w = modelWorkload(a);
    Count chunks = a.count(Opt::Chunks);
    auto org = core::heterogeneous(*device, w);
    if (!org)
        hcm_fatal("no calibration data for that device/workload pair");
    core::AppliedScenario applied =
        core::applyScenario(scenarioOf(a), nodeOf(a), w);
    core::Organization eff = applied.organization(*org);
    double f_eff = applied.fraction(a.number(Opt::F));
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
    sim::SimStats stats =
        sim::ChipSimulator(m).run(sim::TaskGraph::amdahl(f_eff, chunks));
    std::cout << "design: r=" << fmtSig(design.r, 3) << ", tiles="
              << m.tiles << " (n=" << fmtSig(design.n, 4) << "), "
              << core::limiterName(design.limiter) << "-limited\n";
    std::cout << "analytic speedup (continuous): "
              << fmtSig(design.speedup, 4) << "\n";
    std::cout << "simulated speedup (" << chunks << " chunks):  "
              << fmtSig(stats.speedup(1.0), 4) << "\n";
    std::cout << "simulated energy: " << fmtSig(stats.energy, 4)
              << " BCE units; tile utilization "
              << fmtPercent(stats.tileUtilization(m.tiles), 1)
              << "; events " << stats.events << "\n";
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
cmdValidateTrace(Invocation &a)
{
    const std::string &path = a.positionals[0];
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
cmdTraceMerge(Invocation &a)
{
    std::vector<obs::TraceInput> inputs;
    for (const std::string &path : a.positionals)
        inputs.push_back({traceLabel(path), readFileOrDie(path)});
    std::string error;
    std::ostringstream merged;
    if (!obs::mergeChromeTraces(inputs, merged, &error))
        a.fail(error);
    merged << "\n";
    const std::string &output = a.text(Opt::Output);
    if (output.empty()) {
        std::cout << merged.str();
        return 0;
    }
    writeOutput(output, "",
                [&](std::ostream &out) { out << merged.str(); });
    hcm_inform("merged trace written", logField("file", output),
               logField("inputs", inputs.size()));
    return 0;
}

int
cmdTraffic(Invocation &a)
{
    const wl::Workload &w = a.get<wl::Workload>(Opt::Workload);
    Count kib = a.count(Opt::Cache);
    mem::CacheConfig config;
    config.sizeBytes = kib * 1024;
    config.lineBytes = 64;
    config.ways = 8;
    mem::TrafficResult r = mem::measureTraffic(w, config);
    std::cout << w.name() << " through a " << kib << " KiB cache:\n";
    std::cout << "  working set:  "
              << fmtSig(mem::workingSetBytes(w) / 1024.0, 4) << " KiB\n";
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
    const char *slot = flag(Opt::Slot);
    auto parts = split(spec, ':');
    if (parts.size() < 3 || parts.size() > 4)
        hcm_fatal("bad ", slot, " '", spec,
                  "' (expected device:workload:fraction)");
    dev::DeviceId device = deviceOrDie(parts[0]);
    wl::Workload w = workloadOrDie(
        parts.size() == 4 ? parts[1] + ":" + parts[2] : parts[1],
        svc::parseModelWorkload);
    if (!dev::MeasurementDb::instance().find(device, w))
        hcm_fatal("bad ", slot, " '", spec, "': no measurement for ",
                  dev::deviceName(device), " on ", w.name());
    double fraction = numberOrDie<double>(slot, parts.back());
    return core::makeSlot(device, w, fraction);
}

int
cmdMixed(Invocation &a)
{
    const auto &specs = a.get<std::vector<std::string>>(Opt::Slot);
    if (specs.empty())
        hcm_fatal(a.verb.name, " needs at least one ", flag(Opt::Slot));
    const core::Scenario &scenario = scenarioOf(a);
    if (!scenario.segments.empty())
        hcm_fatal(a.verb.name, " takes its phases from ", flag(Opt::Slot),
                  "; scenario '", scenario.name, "' has a segment profile");
    std::vector<core::KernelSlot> slots;
    for (const std::string &spec : specs)
        slots.push_back(parseSlot(spec));
    std::string why = core::slotsError(slots);
    if (!why.empty())
        hcm_fatal("bad ", flag(Opt::Slot), " set: ", why);
    bool shared = a.on(Opt::Shared);
    core::FabricMode mode = shared ? core::FabricMode::Shared
                                   : core::FabricMode::Partitioned;

    TextTable t(std::string("Mixed-fabric chip (") +
                (shared ? "shared" : "partitioned") +
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
cmdCrossover(Invocation &a)
{
    double target = a.number(Opt::Target);
    // parseNumber() already refuses inf and nan.
    if (!(target > 0.0))
        hcm_fatal(flag(Opt::Target), " must be finite and > 0, got ",
                  target);
    wl::Workload w = modelWorkload(a);
    TextTable t("Minimum f for HET >= " + fmtSig(target, 3) +
                "x the best CMP on " + w.name() +
                ", scenario=" + a.text(Opt::Scenario));
    std::vector<std::string> headers = {"Fabric"};
    for (const auto &node : itrs::nodeTable())
        headers.push_back(node.label());
    t.setHeaders(headers);
    const core::Scenario &scenario = scenarioOf(a);
    for (const core::Organization &org : core::paperOrganizations(w)) {
        if (!org.isHet())
            continue;
        std::vector<std::string> row = {org.name};
        for (const auto &node : itrs::nodeTable()) {
            auto f_star = core::requiredParallelism(*org.device, w, target,
                                                    node, scenario);
            row.push_back(f_star ? fmtFixed(*f_star, 3) : "never");
        }
        t.addRow(row);
    }
    std::cout << t;
    return 0;
}

int
cmdRoofline(Invocation &a)
{
    std::string measured = flag(Opt::Measured);
    if (!a.on(Opt::Measured)) {
        a.refuse(of({Opt::Smoke, Opt::Json, Opt::Output}),
                 "needs " + measured);
        wl::Workload w = modelWorkload(a);
        TextTable t("Rooflines for " + w.name());
        t.setHeaders({"Device", "peak Gops/s", "peak GB/s", "ridge ops/B",
                      "workload ops/B", "attainable", "compute-bound?"});
        for (dev::DeviceId id : dev::allDevices()) {
            if (!dev::MeasurementDb::instance().find(id, w) ||
                dev::deviceInfo(id).memBw.value() <= 0.0)
                continue;
            dev::Roofline r = dev::Roofline::forDevice(id, w);
            t.addRow({dev::deviceName(id), fmtSig(r.peakPerf().value(), 3),
                      fmtSig(r.peakBandwidth().value(), 4),
                      fmtSig(r.ridgeIntensity(), 3),
                      fmtSig(w.intensity(), 3),
                      fmtSig(r.attainable(w).value(), 3),
                      r.computeBound(w) ? "yes" : "no"});
        }
        std::cout << t;
        return 0;
    }
    a.refuse(of({Opt::Workload}), "does not apply with " + measured);
    hwc::SelfRooflineOptions sopts;
    if (a.on(Opt::Smoke)) {
        // CI-sized probes: the ceilings are noisier but the whole
        // command finishes in well under a second.
        sopts.probe.streamElems = 1u << 18;
        sopts.probe.minSeconds = 0.01;
        sopts.probe.passes = 1;
        sopts.loopMinSeconds = 0.02;
    }
    hwc::SelfRooflineReport report = hwc::measureSelfRoofline(sopts);
    const std::string &output = a.text(Opt::Output);
    if (!output.empty()) {
        writeOutput(output, "", [&](std::ostream &out) {
            hwc::writeSelfRooflineJson(report, out);
        });
        hcm_inform("self-roofline written", logField("file", output));
    }
    if (a.on(Opt::Json))
        hwc::writeSelfRooflineJson(report, std::cout);
    else
        std::cout << hwc::renderSelfRoofline(report);
    return 0;
}

int
cmdScenarios(Invocation &a)
{
    report::writeScenarioSummary(std::cout, modelWorkload(a),
                                 a.number(Opt::F));
    return 0;
}

/** The engine knobs kEngine names, for an engine labelled @p shard. */
svc::EngineOptions
engineOptions(const Invocation &a, const std::string &shard)
{
    svc::EngineOptions eopts;
    eopts.threads = a.count(Opt::Threads);
    eopts.cacheCapacity = a.count(Opt::CacheEntries);
    eopts.slowQueryNs = a.count(Opt::SlowQueryMs);
    eopts.deadlineNs = a.count(Opt::DeadlineMs);
    eopts.admissionWaitNs = a.count(Opt::AdmissionWaitMs);
    eopts.shardLabel = shard;
    return eopts;
}

int
cmdBatch(Invocation &a)
{
    const std::string &path = a.positionals[0];
    std::string text = readFileOrDie(path);
    std::string error;
    if (!svc::runBatch(text, a.addEngine(engineOptions(a, "")), std::cout,
                       &error, a.on(Opt::ResultsOnly)))
        hcm_fatal(path, ": ", error);
    return 0;
}

volatile std::sig_atomic_t g_shutdownRequested = 0;

extern "C" void
handleShutdownSignal(int)
{
    g_shutdownRequested = 1;
}

/** From now on SIGINT and SIGTERM end the verb's loop, not the process. */
void
catchShutdownSignals()
{
    std::signal(SIGINT, handleShutdownSignal);
    std::signal(SIGTERM, handleShutdownSignal);
}

/** Sleep @p ms milliseconds or until a shutdown signal; true on one. */
bool
sleepUnlessSignalled(Count ms)
{
    // Compared in whole milliseconds: a deadline the clock could not
    // represent would wrap and the sleep would never start.
    auto start = std::chrono::steady_clock::now();
    while (!g_shutdownRequested &&
           static_cast<Count>(
               std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count()) < ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return g_shutdownRequested;
}

/** Serve @p handler on --host:--port until SIGINT or SIGTERM. */
int
listenUntilSignalled(const Invocation &a, net::TcpServer::Handler handler)
{
    net::TcpServerOptions sopts;
    sopts.host = a.text(Opt::Host);
    sopts.port = static_cast<std::uint16_t>(a.get<int>(Opt::Port));
    net::TcpServer server(sopts, std::move(handler));
    std::string error;
    if (!server.start(&error))
        a.fail(error);
    // The kernel assigns ephemeral ports; print the real one so
    // scripts using --port 0 can find us.
    std::cout << "listening " << sopts.host << ":" << server.port() << "\n"
              << std::flush;
    catchShutdownSignals();
    sleepUnlessSignalled(std::numeric_limits<Count>::max());
    server.stop();
    return 0;
}

/** Serve @p backends behind one front door on --host:--port. */
int
serveFrontDoor(const Invocation &a,
               std::vector<std::unique_ptr<net::ShardBackend>> backends)
{
    net::FrontDoorOptions fopts;
    fopts.scrapeIntervalMs = a.count(Opt::ScrapeIntervalMs);
    net::FrontDoor front(std::move(backends), fopts);
    return listenUntilSignalled(a, [&front](const std::string &request) {
        return front.handle(request);
    });
}

int
cmdServe(Invocation &a)
{
    Count shards = a.count(Opt::Shards);
    const std::string &shard_id = a.text(Opt::ShardId);
    std::string port = flag(Opt::Port);
    std::string needs_shards = std::string("needs ") + flag(Opt::Shards) +
                               " > 1";
    if (!a.given(Opt::Port)) {
        // The stdin/stdout loop serves one engine; sharding is the TCP
        // front door's.
        if (shards > 1)
            a.fail(flag(Opt::Shards), " ", shards, " needs ", port);
        a.refuse(of({Opt::Host}), "needs " + port);
        a.refuse(of({Opt::ScrapeIntervalMs}), needs_shards);
        svc::runServe(std::cin, std::cout,
                      a.addEngine(engineOptions(a, shard_id)));
        return 0;
    }
    if (shards == 1) {
        a.refuse(of({Opt::ScrapeIntervalMs}), needs_shards);
        svc::RequestRouter router(a.addEngine(engineOptions(a, shard_id)));
        return listenUntilSignalled(a, [&router](const std::string &request) {
            return router.route(request).body;
        });
    }
    // --shards engines behind an in-process front door that owns the
    // key-space partition.
    std::vector<std::unique_ptr<net::ShardBackend>> backends;
    for (Count s = 0; s < shards; ++s)
        backends.push_back(std::make_unique<net::LocalShardBackend>(
            "shard-" + std::to_string(s),
            a.addEngine(engineOptions(
                a, (shard_id.empty() ? "" : shard_id + "-") +
                       std::to_string(s)))));
    return serveFrontDoor(a, std::move(backends));
}

int
cmdFront(Invocation &a)
{
    if (!a.given(Opt::Port))
        a.fail(flag(Opt::Port), " is required");
    const std::string &addrs = a.text(Opt::ShardAddrs);
    if (addrs.empty())
        a.fail(flag(Opt::ShardAddrs), " is required");
    std::vector<std::unique_ptr<net::ShardBackend>> backends;
    for (const std::string &spec : split(addrs, ',')) {
        if (spec.empty())
            continue;
        std::string host;
        std::uint16_t port = 0;
        std::string error;
        if (!net::parseHostPort(spec, &host, &port, &error))
            a.fail(flag(Opt::ShardAddrs), ": ", error);
        backends.push_back(std::make_unique<net::TcpShardBackend>(
            host, port, a.count(Opt::TimeoutMs)));
    }
    if (backends.empty())
        a.fail(flag(Opt::ShardAddrs), " named no shards");
    return serveFrontDoor(a, std::move(backends));
}

/** --connect's host and port; fatal when absent or malformed. */
std::pair<std::string, std::uint16_t>
connectTarget(const Invocation &a)
{
    const std::string &target = a.text(Opt::Connect);
    if (target.empty())
        a.fail(flag(Opt::Connect), " <host:port> is required");
    std::pair<std::string, std::uint16_t> endpoint;
    std::string error;
    if (!net::parseHostPort(target, &endpoint.first, &endpoint.second,
                            &error))
        a.fail(flag(Opt::Connect), ": ", error);
    return endpoint;
}

int
cmdLoadgen(Invocation &a)
{
    auto [host, port] = connectTarget(a);
    const std::string &mix_path = a.positionals[0];
    std::string error;
    auto requests = net::parseMixText(readFileOrDie(mix_path), &error);
    if (requests.empty())
        hcm_fatal(mix_path, ": ", error);

    net::LoadGenOptions lopts;
    lopts.host = host;
    lopts.port = port;
    lopts.rate = a.number(Opt::Rate);
    lopts.concurrency = a.count(Opt::Concurrency);
    lopts.repeat = a.count(Opt::Repeat);
    lopts.timeoutMs = a.count(Opt::TimeoutMs);
    lopts.outputPath = a.text(Opt::Output);
    lopts.samplesPath = a.text(Opt::SamplesOut);
    lopts.tagRequestIds = !a.on(Opt::NoRequestIds);
    net::LoadGenReport report;
    if (!net::runLoadGen(requests, lopts, &report, &error))
        a.fail(error);
    std::cout << net::formatLoadGenReport(report);
    // A run where nothing got through is a failed run: scripts keying
    // on the exit code should not need to parse the report.
    return report.sent > 0 && report.transportFailures == report.sent
               ? 1
               : 0;
}

int
cmdTop(Invocation &a)
{
    bool once = a.on(Opt::Once);
    if (once)
        a.refuse(of({Opt::IntervalMs}),
                 std::string("does not apply with ") + flag(Opt::Once));
    auto [host, port] = connectTarget(a);
    net::TcpShardBackend backend(host, port, a.count(Opt::TimeoutMs));
    catchShutdownSignals();
    do {
        std::string response, error;
        if (!backend.roundTrip("{\"type\":\"fleet\"}", &response,
                               &error)) {
            if (once)
                a.fail(error);
            // Live mode keeps polling: a restarting front door should
            // not kill the dashboard watching it.
            std::cout << "fleet unavailable: " << error << "\n"
                      << std::flush;
            continue;
        }
        std::vector<net::ShardStatus> shards;
        net::FrontCounters front;
        if (!net::parseFleetResponse(response, &shards, &front, &error))
            a.fail(error);
        std::ostringstream screen;
        screen << net::renderFleetTable(shards);
        screen << "front: routed " << front.routed << "  shed "
               << front.shed << "  shard_unavailable "
               << front.shardUnavailable << "\n";
        if (!once)
            std::cout << "\033[H\033[2J"; // redraw in place
        std::cout << screen.str() << std::flush;
    } while (!once && !sleepUnlessSignalled(a.count(Opt::IntervalMs)));
    return 0;
}

int
cmdBench(Invocation &a)
{
    prof::BenchRunOptions bopts;
    bopts.benchDir = a.text(Opt::BenchDir);
    bopts.only = a.text(Opt::Only);
    bopts.smoke = a.on(Opt::Smoke);
    bopts.repetitions = a.get<int>(Opt::Repetitions);
    // Stamp counter availability into the results metadata so a diff
    // reader can tell "no counter columns" from "host had none".
    hwc::Availability avail = hwc::counterAvailability();
    bopts.counters.available = avail.available;
    bopts.counters.reason = avail.reason;
    bopts.counters.perfEventParanoid = avail.perfEventParanoid;
    std::ostringstream merged;
    std::string error;
    if (!prof::runBenchPipeline(bopts, merged, &error))
        a.fail(error);
    const std::string &results = a.text(Opt::Results);
    writeOutput(results, "results file ",
                [&](std::ostream &out) { out << merged.str(); });
    hcm_inform("bench results written", logField("file", results),
               logField("smoke", bopts.smoke ? "yes" : "no"));
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
cmdBenchDiff(Invocation &a)
{
    JsonValue old_doc = loadBenchResults(a.positionals[0]);
    JsonValue new_doc = loadBenchResults(a.positionals[1]);
    prof::BenchDiffOptions dopts;
    dopts.tolerancePct = a.number(Opt::TolerancePct);
    dopts.minTimeNs = a.number(Opt::MinTimeNs);
    dopts.counterTolerancePct = a.number(Opt::CounterTolerancePct);
    std::string error;
    auto report =
        prof::diffBenchResults(old_doc, new_doc, dopts, &error);
    if (!report)
        a.fail(error);
    prof::writeDiffReport(std::cout, *report, dopts);
    return report->hasRegressions() ? 1 : 0;
}

int
cmdList(Invocation &)
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
cmdStudy(Invocation &a)
{
    if (report::writeStudy(std::cout, a.positionals[0]))
        return 0;
    std::string names;
    for (const std::string &name : report::studyNames())
        names += (names.empty() ? "" : ", ") + name;
    hcm_fatal("no study '", a.positionals[0], "' (", names, ")");
}

int cmdHelp(Invocation &);

const Verb kVerbs[] = {
    {"table", "<1-6>", 0, cmdTable, "print a paper table"},
    {"figure", "<2-10>", of({Opt::Out}), cmdFigure,
     "print a paper figure (ASCII) and write\n"
     "CSV/gnuplot files under --out (default bench_out)"},
    {"project", "",
     of({Opt::Workload, Opt::F, Opt::Scenario, Opt::Device, Opt::Energy,
         Opt::Json, Opt::Csv}),
     cmdProject, "projection rows across ITRS nodes"},
    {"sweep", "",
     kObserve | of({Opt::Workloads, Opt::Fractions, Opt::Scenarios,
                    Opt::Jobs, Opt::Progress, Opt::Format, Opt::Output}),
     cmdSweep,
     "parallel design-space sweep: workload set x\n"
     "f-grid x scenario set x organization x node,\n"
     "fanned across worker threads (CSV/JSON out)"},
    {"optimize", "", kPoint | of({Opt::Device}), cmdOptimize,
     "one design point at one node"},
    {"pareto", "", kPoint, cmdPareto,
     "speedup/energy Pareto frontier at one node"},
    {"simulate", "", kPoint | kObserve | of({Opt::Device, Opt::Chunks}),
     cmdSimulate, "cross-check one design on the event simulator"},
    {"traffic", "", of({Opt::Workload, Opt::Cache}), cmdTraffic,
     "cache-trace traffic vs compulsory bytes"},
    {"mixed", "", of({Opt::Slot, Opt::Shared, Opt::Scenario}), cmdMixed,
     "multi-kernel chip with per-slot fabrics\n"
     "(repeat --slot device:workload:fraction)"},
    {"crossover", "", of({Opt::Workload, Opt::Scenario, Opt::Target}),
     cmdCrossover, "minimum f where a HET beats the best CMP"},
    {"roofline", "",
     of({Opt::Workload, Opt::Measured, Opt::Smoke, Opt::Json, Opt::Output,
         Opt::Verbose}),
     cmdRoofline,
     "device roofline + workload placement;\n"
     "--measured probes THIS host's ceilings with\n"
     "calibrated microkernels and places the\n"
     "model's hot loops on them via hardware\n"
     "counters (ascii chart; --json for the\n"
     "machine-readable report, --output <file>\n"
     "to also write it; --smoke shrinks the\n"
     "probes for CI)"},
    {"scenarios", "", of({Opt::Workload, Opt::F}), cmdScenarios,
     "Section 6.2 scenario summary"},
    {"study", "<name>", 0, cmdStudy,
     "print one extension study (see hcm list)"},
    {"batch", "<requests.json>", kEngine | kObserve | of({Opt::ResultsOnly}),
     cmdBatch,
     "evaluate a batch of JSON queries on the\n"
     "thread-pooled engine; emits results + metrics\n"
     "(--results-only: just {\"results\":[...]})"},
    // The daemons log at Warn: stdout carries the wire protocol, and
    // stderr chatter is noise for a supervised process.
    {"serve", "",
     kEngine | kObserve |
         of({Opt::Port, Opt::Host, Opt::Shards, Opt::ShardId,
             Opt::ScrapeIntervalMs, Opt::FlightRecorderSize}),
     cmdServe,
     "JSON request/response loop ({\"type\":\"metrics\"}\n"
     "for stats, optionally with \"format\":\"prom\";\n"
     "{\"type\":\"trace\"} for the collected trace;\n"
     "{\"type\":\"profile\"} for the profile tree);\n"
     "line-delimited on stdin/stdout by default,\n"
     "length-prefixed frames on TCP with --port\n"
     "(--shards N serves N engines behind an\n"
     "in-process consistent-hash front door)",
     LogLevel::Warn},
    {"front", "",
     kObserve | of({Opt::Port, Opt::Host, Opt::ShardAddrs, Opt::TimeoutMs,
                    Opt::ScrapeIntervalMs, Opt::FlightRecorderSize}),
     cmdFront,
     "TCP front door over remote shards: routes\n"
     "queries by canonical key across --shard-addrs,\n"
     "fans batches out, degrades to structured\n"
     "shard_unavailable errors when a shard is lost",
     LogLevel::Warn},
    {"loadgen", "<mix>",
     kObserve | of({Opt::Connect, Opt::Rate, Opt::Concurrency, Opt::Repeat,
                    Opt::TimeoutMs, Opt::Output, Opt::SamplesOut,
                    Opt::NoRequestIds}),
     cmdLoadgen,
     "replay a query mix (JSONL or batch document)\n"
     "against --connect at --rate; reports\n"
     "p50/p95/p99 latency and error/shed counts;\n"
     "every request carries a minted requestId\n"
     "(--samples-out records them per request)"},
    {"top", "",
     of({Opt::Connect, Opt::TimeoutMs, Opt::IntervalMs, Opt::Once,
         Opt::Verbose}),
     cmdTop,
     "fleet dashboard over a front door's\n"
     "{\"type\":\"fleet\"} verb: per-shard qps,\n"
     "latency percentiles, queue depth, cache hit\n"
     "rate; redraws every --interval-ms, or prints\n"
     "once and exits with --once"},
    {"trace-merge", "<file...>", of({Opt::Output, Opt::Verbose}),
     cmdTraceMerge,
     "stitch per-process --trace-out files into\n"
     "one timeline (pid per input, wall-clock\n"
     "aligned) written to --output (default\n"
     "stdout); load it in Perfetto to see a\n"
     "request flow front door -> shard"},
    {"bench", "",
     of({Opt::BenchDir, Opt::Only, Opt::Smoke, Opt::Repetitions,
         Opt::Results, Opt::Verbose}),
     cmdBench,
     "run the google-benchmark suites and merge\n"
     "their results into one BENCH_RESULTS.json"},
    {"bench-diff", "<old> <new>",
     of({Opt::TolerancePct, Opt::MinTimeNs, Opt::CounterTolerancePct,
         Opt::Verbose}),
     cmdBenchDiff,
     "compare two bench results files; exit 1 when\n"
     "a median slowdown exceeds the tolerance"},
    {"validate-trace", "<file>", 0, cmdValidateTrace,
     "check a --trace-out or trace-merge file is a\n"
     "well-formed Chrome trace — merged files also\n"
     "get flow pairing and per-process timestamp\n"
     "monotonicity checks (exit 1 with a reason)"},
    {"list", "", 0, cmdList,
     "devices, workloads, scenarios, nodes,\n"
     "studies"},
    {"help", "", 0, cmdHelp, "this text"},
};

/** "  @p head", padded to @p width, then @p help's lines, each after
 *  the first indented to start under the first. */
void
printHelpRow(const std::string &head, std::size_t width,
             std::string_view help)
{
    std::cout << "  " << head
              << std::string(head.size() < width ? width - head.size() : 1,
                             ' ');
    for (std::size_t end; (end = help.find('\n')) != help.npos;
         help.remove_prefix(end + 1))
        std::cout << help.substr(0, end) << "\n"
                  << std::string(2 + width, ' ');
    std::cout << help << "\n";
}

/**
 * The heading over the options @p listed in @p section: its title, then
 * every verb that reads one of them, wrapped under the parenthesis.
 */
std::string
heading(const Section &section, OptSet listed)
{
    std::string text = std::string(section.title) + " (";
    std::size_t indent = text.size(), line = 0;
    for (const Verb &v : kVerbs) {
        if (!(v.reads & listed))
            continue;
        if (text.back() != '(')
            text += '/';
        if (text.size() - line + std::string_view(v.name).size() > 72) {
            line = (text += '\n').size();
            text.append(indent, ' ');
        }
        text += v.name;
    }
    if (section.note)
        text += std::string(" — ") + section.note;
    return text + "):";
}

int
cmdHelp(Invocation &)
{
    std::cout << "hcm — heterogeneous computing models (MICRO 2010 "
                 "reproduction)\n\nusage: hcm <command> [options]\n\n"
                 "commands:\n";
    for (const Verb &v : kVerbs)
        printHelpRow(*v.args ? std::string(v.name) + " " + v.args : v.name,
                     24, v.help);
    for (const Section &section : kSections) {
        const Section *next = &section + 1;
        OptSet listed = 0;
        for (const Option &o : kOptions)
            if (*o.help && o.id >= section.first &&
                (next == std::end(kSections) || o.id < next->first))
                listed |= of({o.id});
        std::cout << "\n" << heading(section, listed) << "\n";
        for (const Option &o : kOptions)
            if (listed & of({o.id}))
                printHelpRow(o.value ? std::string(o.flag) + " " + o.value
                                     : o.flag,
                             28, o.help);
    }
    std::cout << "\nexamples:\n"
                 "  hcm table 5\n"
                 "  hcm figure 6\n"
                 "  hcm project --workload mmm --f 0.999\n"
                 "  hcm optimize --workload fft:1024 --f 0.9 --node 11 "
                 "--scenario power-10w\n";
    return 0;
}

/** Arm the fault injector from --fault-spec (fatal on a bad spec). */
void
applyFaultSpec(const std::string &spec)
{
    if (spec.empty())
        return;
    std::string error;
    if (!svc::FaultInjector::instance().configure(spec, &error))
        hcm_fatal(flag(Opt::FaultSpec), ": ", error);
    hcm_warn("fault injection armed", logField("spec", spec));
}

/**
 * Write --metrics-out in the chosen format: scope "all" of the
 * engine's metrics (when the verb ran one query engine) and the
 * process-wide registry (thread pool, simulator); JSON ends with a
 * newline.
 */
void
writeMetricsFile(const Invocation &a, const std::string &path)
{
    const std::string &format = a.text(Opt::MetricsFormat);
    const svc::QueryEngine *engine =
        a.engines.size() == 1 ? a.engines[0].get() : nullptr;
    writeOutput(path, "metrics file ", [&](std::ostream &out) {
        out << svc::metricsPayload(engine, format, "all");
        if (format != "prom")
            out << "\n";
    });
    hcm_inform("metrics written", logField("file", path),
               logField("format", format));
}

/** Write the aggregated profile, collapsed stacks or the JSON tree. */
void
writeProfile(const std::string &path, const std::string &format)
{
    obs::Profiler &profiler = obs::Profiler::instance();
    profiler.setEnabled(false);
    std::size_t sites = profiler.siteCount();
    writeOutput(path, "profile file ", [&](std::ostream &out) {
        if (format == "json") {
            profiler.writeJson(out);
            out << "\n";
        } else {
            profiler.writeCollapsed(out);
        }
    });
    hcm_inform("profile written", logField("file", path),
               logField("sites", sites), logField("format", format));
}

/** Write the Chrome trace of the spans collected. */
void
writeTrace(const std::string &path)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(false);
    std::size_t spans = tracer.spanCount();
    writeOutput(path, "trace file ", [&](std::ostream &out) {
        tracer.writeChromeTrace(out);
        out << "\n";
    });
    hcm_inform("trace written", logField("file", path),
               logField("spans", spans));
}

/**
 * Run the verb @p args names: parse its command line, set up what its
 * options ask for, run it, then write the files they name. Returns its
 * exit status.
 */
int
runCommand(const std::vector<std::string> &args)
{
    // No verb, --help and -h each mean help.
    std::string name =
        args.empty() || args[0] == "--help" || args[0] == "-h" ? "help"
                                                               : args[0];
    const Verb *verb =
        std::find_if(std::begin(kVerbs), std::end(kVerbs),
                     [&](const Verb &v) { return name == v.name; });
    if (verb == std::end(kVerbs))
        hcm_fatal("unknown command '", name, "' (see hcm help)");
    Invocation a(*verb, args);
    auto path = [&](Opt o) { return a.given(o) ? a.text(o) : ""; };

    // HCM_LOG_LEVEL always wins, so operators can override either way.
    if (!std::getenv("HCM_LOG_LEVEL"))
        setLogThreshold(lowerLogLevel(
            verb->log, a.given(Opt::Verbose)
                           ? static_cast<unsigned>(a.count(Opt::Verbose))
                           : 0));
    if (a.given(Opt::FaultSpec))
        applyFaultSpec(a.text(Opt::FaultSpec));
    if (a.reads(Opt::FlightRecorderSize))
        svc::FlightRecorder::instance().configure(
            a.count(Opt::FlightRecorderSize));
    std::string trace = path(Opt::TraceOut);
    std::string profile = path(Opt::ProfileOut);
    if (!trace.empty())
        obs::Tracer::instance().setEnabled(true);
    if (!profile.empty())
        obs::Profiler::instance().setEnabled(true);

    int status = verb->run(a);
    if (std::string metrics = path(Opt::MetricsOut); !metrics.empty())
        writeMetricsFile(a, metrics);
    // Join the engines' workers before the profile and trace are
    // written.
    a.engines.clear();
    if (!profile.empty())
        writeProfile(profile, a.text(Opt::ProfileFormat));
    if (!trace.empty())
        writeTrace(trace);
    return status;
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
