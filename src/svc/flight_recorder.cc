#include "flight_recorder.hh"

namespace hcm {
namespace svc {

FlightRecorder &
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::configure(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(_mu);
    _capacity.store(capacity, std::memory_order_relaxed);
    _ring.clear();
    _next = 0;
    _recorded = 0;
}

void
FlightRecorder::record(RequestRecord rec)
{
    std::size_t capacity = _capacity.load(std::memory_order_relaxed);
    if (capacity == 0)
        return;
    std::lock_guard<std::mutex> lock(_mu);
    // Re-read under the lock: a concurrent configure() may have
    // resized between the fast-path check and here.
    capacity = _capacity.load(std::memory_order_relaxed);
    if (capacity == 0)
        return;
    if (_ring.size() < capacity) {
        _ring.push_back(std::move(rec));
        _next = _ring.size() % capacity;
    } else {
        _ring[_next] = std::move(rec);
        _next = (_next + 1) % capacity;
    }
    ++_recorded;
}

std::vector<RequestRecord>
FlightRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::vector<RequestRecord> out;
    out.reserve(_ring.size());
    // _next is the oldest slot once the ring has wrapped.
    std::size_t start = _ring.size() < _capacity.load() ? 0 : _next;
    for (std::size_t i = 0; i < _ring.size(); ++i)
        out.push_back(_ring[(start + i) % _ring.size()]);
    return out;
}

std::uint64_t
FlightRecorder::recordedTotal() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _recorded;
}

void
FlightRecorder::writeJson(JsonWriter &json) const
{
    std::vector<RequestRecord> records = snapshot();
    std::uint64_t recorded = recordedTotal();
    json.beginObject();
    json.kv("capacity", _capacity.load(std::memory_order_relaxed));
    json.kv("recorded", recorded);
    json.key("records").beginArray();
    for (const RequestRecord &rec : records) {
        json.beginObject();
        json.kv("requestId",
                rec.requestId.empty() ? "-" : rec.requestId);
        json.kv("type", rec.type);
        if (!rec.shard.empty())
            json.kv("shard", rec.shard);
        json.kv("outcome", rec.outcome);
        json.kv("queueMs", static_cast<double>(rec.queueNs) / 1e6);
        json.kv("evalMs", static_cast<double>(rec.evalNs) / 1e6);
        json.kv("netMs", static_cast<double>(rec.netNs) / 1e6);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
recordFlight(const Query &q, const char *outcome, std::uint64_t queue_ns,
             std::uint64_t eval_ns, std::uint64_t net_ns,
             const std::string &shard)
{
    FlightRecorder &recorder = FlightRecorder::instance();
    if (!recorder.enabled())
        return;
    RequestRecord rec;
    rec.requestId = q.requestId;
    rec.type = queryTypeName(q.type);
    rec.shard = shard;
    rec.outcome = outcome;
    rec.queueNs = queue_ns;
    rec.evalNs = eval_ns;
    rec.netNs = net_ns;
    recorder.record(std::move(rec));
}

} // namespace svc
} // namespace hcm
