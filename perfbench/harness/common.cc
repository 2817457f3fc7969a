#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace perfbench {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
    : _state(splitmix64(splitmix64(seed ^ (stream << 56)) ^ index))
{
}

std::uint64_t
Rng::next()
{
    _state = splitmix64(_state);
    return _state;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::below(std::size_t n)
{
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

const std::array<const char *, 4> kQueryTypes = {
    "optimize", "energy", "pareto", "projection"};
const std::array<const char *, 4> kWorkloadSpecs = {
    "mmm", "bs", "fft:1024", "fft:16384"};
const std::array<const char *, 10> kScenarioNames = {
    "baseline",   "bandwidth-90", "bandwidth-1tb", "half-area",
    "power-200w", "power-10w",    "alpha-2.25",    "multi-amdahl",
    "thermal-85c", "thermal-3d"};
const std::array<int, 5> kNodes = {40, 32, 22, 16, 11};
const std::array<double, 4> kHotFractions = {0.5, 0.9, 0.99, 0.999};

namespace {

bool
isProjection(const QuerySpec &q)
{
    return std::string(kQueryTypes[q.type]) == "projection";
}

} // namespace

std::string
payloadFor(const QuerySpec &q)
{
    std::string out = "{\"type\":\"";
    out += kQueryTypes[q.type];
    out += "\",\"workload\":\"";
    out += kWorkloadSpecs[q.workload];
    out += "\",\"f\":";
    out += fmtDouble(q.f);
    out += ",\"scenario\":\"";
    out += kScenarioNames[q.scenario];
    out += "\"";
    // Projection spans every node; leaving the node out keeps two
    // distinct hot tuples from naming one computation.
    if (!isProjection(q)) {
        out += ",\"node\":";
        out += std::to_string(kNodes[q.node]);
    }
    out += "}";
    return out;
}

std::vector<QuerySpec>
hotQuerySet(std::size_t count)
{
    constexpr std::uint64_t kSetSeed = 0x5eed;
    std::vector<QuerySpec> out;
    std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        double>>
        seen;
    auto add = [&](QuerySpec q) {
        if (isProjection(q))
            q.node = 0;
        if (seen.emplace(q.type, q.workload, q.scenario, q.node, q.f).second)
            out.push_back(q);
    };
    // The first forty tuples walk every value of every field, so the set
    // covers them all whatever the seed draws afterwards.
    for (std::size_t j = 0; j < 40 && out.size() < count; ++j) {
        QuerySpec q;
        q.type = j % kQueryTypes.size();
        q.workload = (j / kQueryTypes.size()) % kWorkloadSpecs.size();
        q.scenario = j % kScenarioNames.size();
        // Node only shows on non-projection queries: step it on those.
        q.node = (j / 2) % kNodes.size();
        q.f = kHotFractions[(j / 3) % kHotFractions.size()];
        add(q);
    }
    Rng rng(kSetSeed, 0, 0);
    while (out.size() < count) {
        QuerySpec q;
        // Types take turns, so each holds a quarter of the set.
        q.type = out.size() % kQueryTypes.size();
        q.workload = rng.below(kWorkloadSpecs.size());
        q.scenario = rng.below(kScenarioNames.size());
        q.node = rng.below(kNodes.size());
        q.f = kHotFractions[rng.below(kHotFractions.size())];
        add(q);
    }
    // Zipf rank order is a shuffle within each query type, with the
    // types interleaved (rank k has type k mod 4).
    std::vector<std::vector<QuerySpec>> by_type(kQueryTypes.size());
    for (const QuerySpec &q : out)
        by_type[q.type].push_back(q);
    for (auto &group : by_type)
        for (std::size_t i = group.size(); i > 1; --i)
            std::swap(group[i - 1], group[rng.below(i)]);
    std::vector<QuerySpec> ranked;
    for (std::size_t k = 0; ranked.size() < out.size(); ++k)
        for (auto &group : by_type)
            if (k < group.size())
                ranked.push_back(group[k]);
    return ranked;
}

Zipf::Zipf(std::size_t n)
{
    double total = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
        total += 1.0 / static_cast<double>(k);
        _cdf.push_back(total);
    }
    for (double &c : _cdf)
        c /= total;
}

std::size_t
Zipf::sample(double u) const
{
    auto it = std::upper_bound(_cdf.begin(), _cdf.end(), u);
    return std::min<std::size_t>(it - _cdf.begin(), _cdf.size() - 1);
}

QuerySpec
coldQuery(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    Rng rng(seed, stream, index);
    QuerySpec q;
    q.type = rng.below(kQueryTypes.size());
    q.workload = rng.below(kWorkloadSpecs.size());
    q.scenario = rng.below(kScenarioNames.size());
    q.node = rng.below(kNodes.size());
    q.f = 0.5 + rng.uniform() * (0.9999 - 0.5);
    return q;
}

Schedule::Schedule(double rate_, double seconds)
    : rate(rate_),
      count(static_cast<std::uint64_t>(std::floor(rate_ * seconds)))
{
}

std::int64_t
Schedule::dueNs(std::uint64_t i) const
{
    return std::llround(static_cast<double>(i) * 1e9 / rate);
}

namespace {

/**
 * 1-based nearest rank of percentile @p pct in @p n samples, computed in
 * integers (pct to two decimals) so 99.9% of 10000 is exactly 9990.
 */
std::size_t
nearestRank(std::size_t n, double pct)
{
    auto hundredths = static_cast<std::uint64_t>(std::llround(pct * 100));
    std::uint64_t rank = (hundredths * n + 9999) / 10000;
    return static_cast<std::size_t>(std::clamp<std::uint64_t>(rank, 1, n));
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        throw std::invalid_argument("percentile of an empty sample");
    return sorted[nearestRank(sorted.size(), pct) - 1];
}

std::optional<double>
median(std::vector<double> values)
{
    if (values.empty())
        return std::nullopt;
    std::sort(values.begin(), values.end());
    return percentileSorted(values, 50.0);
}

std::optional<TailPercentile>
highestSupportedPercentile(const std::vector<double> &sorted,
                           std::size_t min_beyond)
{
    static const double kCandidates[] = {99.99, 99.9, 99.0, 95.0,
                                         90.0,  75.0, 50.0};
    std::size_t n = sorted.size();
    if (n == 0)
        return std::nullopt;
    for (double pct : kCandidates) {
        std::size_t at = nearestRank(n, pct);
        if (n - at < min_beyond)
            continue;
        TailPercentile tail;
        tail.pct = pct;
        tail.value = sorted[at - 1];
        tail.count = n;
        tail.beyond = n - at;
        return tail;
    }
    return std::nullopt;
}

void
Digest::update(const char *data, std::size_t len)
{
    std::uint64_t h = hash;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ull;
    }
    hash = h;
    bytes += len;
}

Digest
digestOf(const std::string &data)
{
    Digest d;
    d.update(data.data(), data.size());
    return d;
}

DigestBuf::DigestBuf()
{
    setp(_buf.data(), _buf.data() + _buf.size());
}

void
DigestBuf::flushBuffer()
{
    _digest.update(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    setp(_buf.data(), _buf.data() + _buf.size());
}

const Digest &
DigestBuf::digest()
{
    flushBuffer();
    return _digest;
}

void
DigestBuf::reset()
{
    setp(_buf.data(), _buf.data() + _buf.size());
    _digest = Digest{};
}

DigestBuf::int_type
DigestBuf::overflow(int_type ch)
{
    flushBuffer();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(ch);
        pbump(1);
    }
    return traits_type::not_eof(ch);
}

std::streamsize
DigestBuf::xsputn(const char *s, std::streamsize n)
{
    std::streamsize room = epptr() - pptr();
    if (n <= room) {
        std::copy(s, s + n, pptr());
        pbump(static_cast<int>(n));
        return n;
    }
    flushBuffer();
    _digest.update(s, static_cast<std::size_t>(n));
    return n;
}

int
DigestBuf::sync()
{
    flushBuffer();
    return 0;
}

const std::vector<std::pair<const char *, const char *>> kEndToEndMetrics =
    {
        {"p50_ms", "ms"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
};

const std::vector<std::pair<const char *, const char *>> kPerLayerMetrics =
    {
        {"svc.query.render_us.optimize", "us"},
        {"svc.query.render_us.energy", "us"},
        {"svc.query.render_us.pareto", "us"},
        {"svc.query.render_us.projection", "us"},
        {"svc.query.eval_us.optimize", "us"},
        {"svc.query.eval_us.energy", "us"},
        {"svc.query.eval_us.pareto", "us"},
        {"svc.query.eval_us.projection", "us"},
        {"core.batch.assign_ns", "ns"},
        {"core.batch.best_ns", "ns"},
        {"svc.engine.hit_us", "us"},
        {"svc.engine.miss_us", "us"},
        {"svc.engine.handoff_us", "us"},
        {"svc.request.parse_ns", "ns"},
        {"svc.query.key_ns", "ns"},
        {"svc.cache.hit_ratio", "ratio"},
        {"svc.cache.evictions", "count"},
        {"svc.cache.lookup_ns", "ns"},
        {"svc.router.route_us", "us"},
        {"net.front_door.self_us", "us"},
        {"net.front_door.shard_share_max", "ratio"},
        {"net.frame.encode_ns", "ns"},
        {"net.frame.decode_ns", "ns"},
        {"net.rtt_empty_us", "us"},
        {"sweep.spec_ms", "ms"},
        {"sweep.run_ms", "ms"},
        {"sweep.csv_ms", "ms"},
        {"sweep.csv_bytes", "bytes"},
        {"sweep.cells_per_s", "1/s"},
        {"gen.p99_ms", "ms"},
        {"gen.throughput_qps", "1/s"},
        {"gen.late_p99_ms", "ms"},
        {"trace.unattributed_share", "ratio"},
};

const std::vector<const char *> kWorkloadNames = {"serve-hot", "serve-cold"};

Report::Report(
    const std::vector<std::pair<const char *, const char *>> &names)
{
    for (const auto &[name, unit] : names)
        _entries.push_back({name, unit, std::nullopt});
}

void
Report::set(const std::string &name, std::optional<double> value)
{
    if (value && !std::isfinite(*value))
        value.reset();
    for (Entry &e : _entries) {
        if (e.name == name) {
            e.value = value;
            return;
        }
    }
    throw std::invalid_argument("unknown metric " + name);
}

bool
Report::anyMissing() const
{
    for (const Entry &e : _entries)
        if (!e.value)
            return true;
    return false;
}

void
Report::writeHuman(std::ostream &out, const char *prefix) const
{
    for (const Entry &e : _entries) {
        out << prefix << " " << e.name << " = ";
        if (e.value)
            out << fmtDouble(*e.value) << " " << e.unit;
        else
            out << "missing";
        out << "\n";
    }
}

void
Report::writeJson(std::ostream &out) const
{
    out << "{";
    bool first = true;
    for (const Entry &e : _entries) {
        if (!e.value)
            continue;
        out << (first ? "" : ", ") << jsonString(e.name)
            << ": {\"value\": " << fmtDouble(*e.value)
            << ", \"unit\": " << jsonString(e.unit) << "}";
        first = false;
    }
    out << "}";
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::size_t
workerThreads()
{
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                   4);
}

std::optional<double>
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            double kib = std::strtod(line.c_str() + 6, nullptr);
            if (kib > 0)
                return kib / 1024.0;
        }
    }
    return std::nullopt;
}

} // namespace perfbench
