#include "metrics.hh"

#include <algorithm>
#include <cmath>

#include "util/format.hh"
#include "util/logging.hh"

namespace hcm {
namespace obs {

namespace {

/** Index of the bucket containing @p value. */
std::size_t
bucketOf(std::uint64_t value)
{
    std::size_t i = 0;
    while (value > 1 && i < Histogram::kBuckets - 1) {
        value >>= 1;
        ++i;
    }
    return i;
}

/** Serialized (name, labels) identity used as the index key. */
std::string
instrumentKey(const std::string &name, const Labels &labels)
{
    std::string key = name;
    for (const auto &[k, v] : labels)
        key += "\x1f" + k + "\x1e" + v;
    return key;
}

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string
promEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** Render {k="v",...} (empty string for no labels). */
std::string
promLabels(const Labels &labels, const std::string &extra = {})
{
    if (labels.empty() && extra.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += k + "=\"" + promEscape(v) + "\"";
    }
    if (!extra.empty()) {
        if (!first)
            out += ",";
        out += extra;
    }
    out += "}";
    return out;
}

} // namespace

Histogram::Histogram(const Histogram &other)
{
    std::lock_guard<std::mutex> lock(other._mu);
    _buckets = other._buckets;
    _count = other._count;
    _sum = other._sum;
}

Histogram &
Histogram::operator=(const Histogram &other)
{
    if (this == &other)
        return *this;
    // Consistent copy without lock-order concerns: snapshot first.
    Histogram snap(other);
    std::lock_guard<std::mutex> lock(_mu);
    _buckets = snap._buckets;
    _count = snap._count;
    _sum = snap._sum;
    return *this;
}

void
Histogram::record(std::uint64_t value)
{
    std::lock_guard<std::mutex> lock(_mu);
    ++_buckets[bucketOf(value)];
    ++_count;
    _sum += value;
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _count;
}

std::uint64_t
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _sum;
}

double
Histogram::mean() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _count ? static_cast<double>(_sum) / _count : 0.0;
}

double
Histogram::percentile(double p) const
{
    hcm_assert(p > 0.0 && p <= 100.0, "percentile ", p,
               " outside (0, 100]");
    std::lock_guard<std::mutex> lock(_mu);
    if (_count == 0)
        return 0.0;
    double target = p / 100.0 * static_cast<double>(_count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        if (_buckets[i] == 0)
            continue;
        double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
        double hi = bucketUpperEdge(i);
        double before = static_cast<double>(seen);
        seen += _buckets[i];
        if (static_cast<double>(seen) >= target) {
            double within = (target - before) / _buckets[i];
            return lo + within * (hi - lo);
        }
    }
    return std::ldexp(1.0, 64); // unreachable: counts always cover
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    hcm_assert(i < kBuckets, "bucket ", i, " out of range");
    std::lock_guard<std::mutex> lock(_mu);
    return _buckets[i];
}

double
Histogram::bucketUpperEdge(std::size_t i)
{
    return std::ldexp(1.0, static_cast<int>(i) + 1);
}

Registry::Entry &
Registry::findOrCreate(const std::string &name, const Labels &labels,
                       Kind kind)
{
    std::string key = instrumentKey(name, labels);
    std::lock_guard<std::mutex> lock(_mu);
    auto it = _index.find(key);
    if (it != _index.end()) {
        hcm_assert(it->second->kind == kind, "instrument '", name,
                   "' re-registered as a different kind");
        return *it->second;
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->labels = labels;
    entry->kind = kind;
    switch (kind) {
      case Kind::Counter:
        entry->counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        entry->gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        entry->histogram = std::make_unique<Histogram>();
        break;
    }
    Entry &ref = *entry;
    _entries.push_back(std::move(entry));
    _index.emplace(std::move(key), &ref);
    return ref;
}

Counter &
Registry::counter(const std::string &name, const Labels &labels)
{
    return *findOrCreate(name, labels, Kind::Counter).counter;
}

Gauge &
Registry::gauge(const std::string &name, const Labels &labels)
{
    return *findOrCreate(name, labels, Kind::Gauge).gauge;
}

Histogram &
Registry::histogram(const std::string &name, const Labels &labels)
{
    return *findOrCreate(name, labels, Kind::Histogram).histogram;
}

void
Registry::gaugeCallback(const std::string &name,
                        std::function<std::int64_t()> fn,
                        const Labels &labels)
{
    Entry &entry = findOrCreate(name, labels, Kind::Gauge);
    std::lock_guard<std::mutex> lock(_mu);
    entry.gaugeFn = std::move(fn);
}

std::int64_t
Registry::gaugeValue(const Entry &entry)
{
    return entry.gaugeFn ? entry.gaugeFn() : entry.gauge->value();
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _entries.size();
}

void
Registry::writeJson(JsonWriter &json) const
{
    // Instrument addresses are stable and values are individually
    // synchronized, so only the entry list itself needs the lock.
    std::vector<const Entry *> entries;
    {
        std::lock_guard<std::mutex> lock(_mu);
        entries.reserve(_entries.size());
        for (const auto &entry : _entries)
            entries.push_back(entry.get());
    }
    auto write_identity = [&](const Entry &entry) {
        json.kv("name", entry.name);
        json.key("labels").beginObject();
        for (const auto &[k, v] : entry.labels)
            json.kv(k, v);
        json.endObject();
    };
    json.beginObject();
    json.key("counters").beginArray();
    for (const Entry *entry : entries) {
        if (entry->kind != Kind::Counter)
            continue;
        json.beginObject();
        write_identity(*entry);
        json.kv("value", entry->counter->value());
        json.endObject();
    }
    json.endArray();
    json.key("gauges").beginArray();
    for (const Entry *entry : entries) {
        if (entry->kind != Kind::Gauge)
            continue;
        json.beginObject();
        write_identity(*entry);
        json.kv("value", static_cast<long long>(gaugeValue(*entry)));
        json.endObject();
    }
    json.endArray();
    json.key("histograms").beginArray();
    for (const Entry *entry : entries) {
        if (entry->kind != Kind::Histogram)
            continue;
        Histogram snap(*entry->histogram);
        json.beginObject();
        write_identity(*entry);
        json.kv("count", snap.count());
        json.kv("sum", snap.sum());
        json.kv("mean", snap.mean());
        if (snap.count() > 0) {
            json.kv("p50", snap.percentile(50.0));
            json.kv("p95", snap.percentile(95.0));
            json.kv("p99", snap.percentile(99.0));
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
Registry::writePrometheus(std::ostream &out) const
{
    std::vector<const Entry *> entries;
    {
        std::lock_guard<std::mutex> lock(_mu);
        entries.reserve(_entries.size());
        for (const auto &entry : _entries)
            entries.push_back(entry.get());
    }
    // The exposition format wants all series of one metric name
    // together under one # TYPE comment; group by first appearance.
    std::vector<std::string> names;
    for (const Entry *entry : entries)
        if (std::find(names.begin(), names.end(), entry->name) ==
            names.end())
            names.push_back(entry->name);

    for (const std::string &name : names) {
        const char *type = nullptr;
        for (const Entry *entry : entries) {
            if (entry->name != name)
                continue;
            if (!type) {
                switch (entry->kind) {
                  case Kind::Counter:
                    type = "counter";
                    break;
                  case Kind::Gauge:
                    type = "gauge";
                    break;
                  case Kind::Histogram:
                    type = "histogram";
                    break;
                }
                out << "# TYPE " << name << " " << type << "\n";
            }
            switch (entry->kind) {
              case Kind::Counter:
                out << name << promLabels(entry->labels) << " "
                    << entry->counter->value() << "\n";
                break;
              case Kind::Gauge:
                out << name << promLabels(entry->labels) << " "
                    << gaugeValue(*entry) << "\n";
                break;
              case Kind::Histogram: {
                Histogram snap(*entry->histogram);
                std::size_t last = 0;
                for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
                    if (snap.bucketCount(i) > 0)
                        last = i;
                std::uint64_t cumulative = 0;
                for (std::size_t i = 0; i <= last; ++i) {
                    cumulative += snap.bucketCount(i);
                    std::string le = "le=\"";
                    appendDouble17(le, Histogram::bucketUpperEdge(i));
                    le += '"';
                    out << name << "_bucket"
                        << promLabels(entry->labels, le)
                        << " " << cumulative << "\n";
                }
                out << name << "_bucket"
                    << promLabels(entry->labels, "le=\"+Inf\"") << " "
                    << snap.count() << "\n";
                out << name << "_sum" << promLabels(entry->labels) << " "
                    << snap.sum() << "\n";
                out << name << "_count" << promLabels(entry->labels)
                    << " " << snap.count() << "\n";
                break;
              }
            }
        }
    }
}

Registry &
globalRegistry()
{
    static Registry registry;
    return registry;
}

} // namespace obs
} // namespace hcm
