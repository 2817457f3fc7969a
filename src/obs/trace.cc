#include "trace.hh"

#include <chrono>

#include "util/json.hh"

namespace hcm {
namespace obs {

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

namespace {

/**
 * The tracing clock's zero, captured once together with the wall
 * clock: the pair lets trace-merge place N per-process steady-clock
 * timelines onto one wall-clock axis.
 */
struct ClockAnchor
{
    std::chrono::steady_clock::time_point t0;
    std::uint64_t wallUs;
};

const ClockAnchor &
clockAnchor()
{
    static const ClockAnchor anchor = [] {
        ClockAnchor a;
        a.t0 = std::chrono::steady_clock::now();
        a.wallUs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        return a;
    }();
    return anchor;
}

} // namespace

std::uint64_t
Tracer::nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - clockAnchor().t0)
            .count());
}

std::uint64_t
Tracer::wallAnchorUs()
{
    return clockAnchor().wallUs;
}

Tracer::ThreadBuffer &
Tracer::localBuffer()
{
    // The tracer keeps one reference so the buffer (and any events a
    // short-lived worker recorded) survives past the thread's exit.
    thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
        auto fresh = std::make_shared<ThreadBuffer>();
        fresh->tid = _nextTid.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(_mu);
        _buffers.push_back(fresh);
        return fresh;
    }();
    return *buffer;
}

void
Tracer::recordSpan(const char *name, const char *category,
                   std::uint64_t start_ns, std::uint64_t dur_ns,
                   std::vector<TraceArg> args)
{
    if (_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxEvents) {
        _dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    ThreadBuffer &buffer = localBuffer();
    std::lock_guard<std::mutex> lock(buffer.mu);
    buffer.events.push_back(Event{name, category, start_ns, dur_ns,
                                  buffer.tid, 'X', std::string(),
                                  std::move(args)});
}

void
Tracer::recordFlow(const char *name, const char *category, char phase,
                   const std::string &flow_id)
{
    if (!enabled())
        return;
    if (_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxEvents) {
        _dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    ThreadBuffer &buffer = localBuffer();
    std::lock_guard<std::mutex> lock(buffer.mu);
    buffer.events.push_back(Event{name, category, nowNs(), 0,
                                  buffer.tid, phase, flow_id, {}});
}

void
Tracer::flushBuffers()
{
    std::lock_guard<std::mutex> lock(_mu);
    for (const auto &buffer : _buffers) {
        std::lock_guard<std::mutex> inner(buffer->mu);
        for (Event &event : buffer->events)
            _retired.push_back(std::move(event));
        buffer->events.clear();
    }
}

std::size_t
Tracer::spanCount()
{
    flushBuffers();
    std::lock_guard<std::mutex> lock(_mu);
    return _retired.size();
}

std::uint64_t
Tracer::droppedSpans() const
{
    return _dropped.load(std::memory_order_relaxed);
}

void
Tracer::clear()
{
    flushBuffers();
    std::lock_guard<std::mutex> lock(_mu);
    _retired.clear();
    _recorded.store(0, std::memory_order_relaxed);
    _dropped.store(0, std::memory_order_relaxed);
}

void
Tracer::writeChromeTrace(std::ostream &out)
{
    flushBuffers();
    std::lock_guard<std::mutex> lock(_mu);
    JsonWriter json(out);
    json.beginObject();
    json.kv("displayTimeUnit", "ms");
    json.kv("droppedEvents", droppedSpans());
    json.kv("traceStartWallUs", wallAnchorUs());
    json.key("traceEvents").beginArray();
    for (const Event &event : _retired) {
        json.beginObject();
        json.kv("name", event.name);
        json.kv("cat", event.category);
        json.kv("ph", std::string(1, event.phase));
        json.kv("pid", 1);
        json.kv("tid", static_cast<long long>(event.tid));
        json.kv("ts", static_cast<double>(event.startNs) / 1e3);
        if (event.phase == 'X') {
            json.kv("dur", static_cast<double>(event.durNs) / 1e3);
        } else {
            json.kv("id", event.flowId);
            if (event.phase == 'f')
                json.kv("bp", "e"); // bind to the enclosing slice
        }
        if (!event.args.empty()) {
            json.key("args").beginObject();
            for (const TraceArg &arg : event.args)
                json.kv(arg.key, arg.value);
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace obs
} // namespace hcm
