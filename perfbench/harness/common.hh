/**
 * @file
 * The benchmark harness's own building blocks, kept free of the system
 * under test so they can be unit-tested alone: a counter-based RNG, the
 * seeded query mixes, the open-loop schedule, exact nearest-rank
 * percentiles, the FNV-1a digest behind the output oracle, and the
 * metric report that prints the final result line.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Randomness: every input is a pure function of (seed, stream, index),
// so a sender can build request i on demand and the oracle can rebuild
// it later without either side storing the payload.

/** Small sequential generator seeded from (seed, stream, index). */
class Rng
{
  public:
    Rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

    std::uint64_t next();

    /** Uniform in [0, 1) with 53 random bits. */
    double uniform();

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n);

  private:
    std::uint64_t _state;
};

// ---------------------------------------------------------------------
// Query mixes. The value sets are fixed here, not read from the
// program, so the inputs stay the same when the program grows.

extern const std::array<const char *, 4> kQueryTypes;
extern const std::array<const char *, 4> kWorkloadSpecs;
/** Every scenario `--scenarios all` named at the benchmark's seed. */
extern const std::array<const char *, 10> kScenarioNames;
extern const std::array<int, 5> kNodes;
extern const std::array<double, 4> kHotFractions;

/** One request's fields; node is ignored by projection queries. */
struct QuerySpec
{
    std::size_t type = 0;
    std::size_t workload = 0;
    std::size_t scenario = 0;
    std::size_t node = 0;
    /** Printed with 17 significant digits, so it round-trips. */
    double f = 0.0;
};

/** The request payload for @p q, in the svc wire format. */
std::string payloadFor(const QuerySpec &q);

/**
 * The serve-hot key set: @p count distinct queries covering every
 * type, workload, scenario, node, and hot fraction, in Zipf rank order.
 * The set is the same for every seed: the seed draws the request
 * sequence, and a seeded set would change the work mix (a pareto answer
 * renders many more rows than an optimize one) from run to run.
 */
std::vector<QuerySpec> hotQuerySet(std::size_t count);

/** Zipf(1.0) sampler over ranks [0, n). */
class Zipf
{
  public:
    explicit Zipf(std::size_t n);
    std::size_t sample(double u) const;

  private:
    std::vector<double> _cdf;
};

/** Stream ids keep warm-up, open-loop, and closed-loop inputs apart. */
enum Stream : std::uint64_t {
    kStreamWarm = 1,
    kStreamOpen = 2,
    kStreamClosed = 3,
};

/** Serve-cold request @p index of @p stream: every field uniform. */
QuerySpec coldQuery(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t index);

// ---------------------------------------------------------------------
// Open-loop schedule: request i is due at i / rate seconds after the
// start; the sender of connection i % connections sends it.

struct Schedule
{
    double rate = 0.0;       ///< requests per second, all connections
    std::uint64_t count = 0; ///< requests in the phase

    Schedule(double rate, double seconds);

    /** Due offset of request @p i from the phase start, in ns. */
    std::int64_t dueNs(std::uint64_t i) const;
};

// ---------------------------------------------------------------------
// Exact order statistics.

/** Nearest-rank percentile of @p sorted (ascending, non-empty). */
double percentileSorted(const std::vector<double> &sorted, double pct);

/** Median of an unsorted sample; nullopt when empty. */
std::optional<double> median(std::vector<double> values);

/**
 * The highest of {99.99, 99.9, 99, 95, 90, 75, 50} whose nearest rank
 * leaves at least @p min_beyond samples above it; nullopt when even
 * the median does not.
 */
struct TailPercentile
{
    double pct = 0.0;
    double value = 0.0;
    std::size_t count = 0;  ///< samples in the distribution
    std::size_t beyond = 0; ///< samples ranked above the percentile
};
std::optional<TailPercentile> highestSupportedPercentile(
    const std::vector<double> &sorted, std::size_t min_beyond = 10);

// ---------------------------------------------------------------------
// Output oracle: byte streams are compared through a 64-bit FNV-1a
// digest plus the length. Every step of FNV-1a is a bijection of the
// state, so two inputs of one length that differ in a single byte never
// collide.

struct Digest
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t bytes = 0;

    void update(const char *data, std::size_t len);
    bool operator==(const Digest &o) const
    {
        return hash == o.hash && bytes == o.bytes;
    }
    bool operator!=(const Digest &o) const { return !(*this == o); }
};

Digest digestOf(const std::string &data);

/** An ostream sink that digests what it is given and keeps nothing. */
class DigestBuf : public std::streambuf
{
  public:
    DigestBuf();
    const Digest &digest();
    void reset();

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;
    int sync() override;

  private:
    void flushBuffer();
    std::array<char, 1 << 16> _buf;
    Digest _digest;
};

// ---------------------------------------------------------------------
// Metric report.

/** Every end-to-end metric, in BENCHMARK.json order, with its unit. */
extern const std::vector<std::pair<const char *, const char *>>
    kEndToEndMetrics;
/** Every per-layer metric, in BENCHMARK.json order, with its unit. */
extern const std::vector<std::pair<const char *, const char *>>
    kPerLayerMetrics;
/** The workload names, in BENCHMARK.json order. */
extern const std::vector<const char *> kWorkloadNames;

/**
 * Name -> value for one run. A metric that was never set prints as
 * "missing" on its human line and is left out of the result line; it
 * never reads as zero.
 */
class Report
{
  public:
    explicit Report(
        const std::vector<std::pair<const char *, const char *>> &names);

    void set(const std::string &name, std::optional<double> value);

    /** True when some metric was never set. */
    bool anyMissing() const;

    /** One "<prefix> <name> = <value> <unit>" line each. */
    void writeHuman(std::ostream &out, const char *prefix) const;

    /** {"name": {"value": v, "unit": u}, ...} for the set metrics. */
    void writeJson(std::ostream &out) const;

  private:
    struct Entry
    {
        std::string name;
        std::string unit;
        std::optional<double> value;
    };
    std::vector<Entry> _entries;
};

/** Round-trip-exact text for a double (17 significant digits). */
std::string fmtDouble(double v);

/** JSON string literal for @p s. */
std::string jsonString(const std::string &s);

/** min(4, nproc): the sweep's jobs and the oracle's threads. */
std::size_t workerThreads();

/** Peak resident set (VmHWM) of this process in MiB; nullopt if unknown. */
std::optional<double> peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
