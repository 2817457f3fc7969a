/**
 * @file
 * Stage timing for the service, network, sweep and simulator paths.
 * obs::Span is the one RAII timing stage: two clock reads feed every
 * collector that is on (the Tracer's span, the Profiler's call tree)
 * and the caller's histograms, flight records and deadline checks.
 * Completed spans land in per-thread buffers (one short uncontended
 * lock per span) and are exported as Chrome trace_event JSON, loadable
 * in chrome://tracing or Perfetto. Off by default: a stage with nothing
 * on is one relaxed atomic load and a few member stores, so it stays in
 * release builds. The buffer is bounded (kMaxEvents across all
 * threads); spans past the cap are counted as dropped.
 */

#ifndef HCM_OBS_TRACE_HH
#define HCM_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/profiler.hh"
#include "util/logging.hh"

namespace hcm {
namespace obs {

/** One key=value annotation on a span. */
struct TraceArg
{
    std::string key;
    std::string value;
};

/**
 * Process-wide trace collector. Threads record into thread-local
 * buffers registered here; writeChromeTrace() flushes every buffer
 * into a retained list and emits the whole history, so repeated
 * exports (the serve control verb) are cumulative until clear().
 */
class Tracer
{
  public:
    /** Upper bound on retained events across all threads. */
    static constexpr std::size_t kMaxEvents = 1u << 20;

    static Tracer &instance();

    void setEnabled(bool on) { sink::set(sink::kTrace, on); }

    bool
    enabled() const
    {
        return sink::on.load(std::memory_order_relaxed) & sink::kTrace;
    }

    /**
     * Record a completed span with explicit timing (the Span's trace
     * sink). Call only when enabled(); events past kMaxEvents are
     * dropped.
     */
    void recordSpan(const char *name, const char *category,
                    std::uint64_t start_ns, std::uint64_t dur_ns,
                    std::vector<TraceArg> args = {});

    /**
     * Record one half of a flow arrow at the current time: 's' starts
     * a flow, 'f' finishes one. Perfetto binds the halves by
     * (category, @p flow_id) across processes, which is how a front
     * door's net.route connects to the owning shard's svc.query in a
     * merged trace. The emitting thread should be inside an enclosing
     * span (flow anchors attach to the slice covering their timestamp).
     * Call only when enabled().
     */
    void recordFlow(const char *name, const char *category, char phase,
                    const std::string &flow_id);

    /** Spans recorded and retained so far (flushes buffers). */
    std::size_t spanCount();

    /** Spans discarded because the buffer cap was reached. */
    std::uint64_t droppedSpans() const;

    /**
     * Emit everything recorded so far as one Chrome trace_event JSON
     * document: {"displayTimeUnit": "ms", "droppedEvents": N,
     * "traceEvents": [{"name", "cat", "ph": "X", "pid", "tid", "ts",
     * "dur", "args"}, ...]}. Timestamps are microseconds since the
     * first use of the tracer's clock. Compact (no newlines), so serve
     * mode can ship it as one response line.
     */
    void writeChromeTrace(std::ostream &out);

    /** Drop every retained span and reset the drop counter. */
    void clear();

    /** Nanoseconds on the tracing clock (steady, process-relative). */
    static std::uint64_t nowNs();

    /**
     * Wall-clock microseconds (Unix epoch) at the tracing clock's
     * zero. Exported as "traceStartWallUs" so trace-merge can shift N
     * per-process timelines onto one axis.
     */
    static std::uint64_t wallAnchorUs();

  private:
    struct Event
    {
        const char *name;
        const char *category;
        std::uint64_t startNs;
        std::uint64_t durNs;
        std::uint32_t tid;
        char phase = 'X'; ///< 'X' complete span; 's'/'f' flow halves
        std::string flowId; ///< flow events only: the binding id
        std::vector<TraceArg> args;
    };

    struct ThreadBuffer
    {
        std::mutex mu;
        std::vector<Event> events;
        std::uint32_t tid = 0;
    };

    Tracer() = default;

    ThreadBuffer &localBuffer();

    /** Move every buffered event into _retired. */
    void flushBuffers();

    std::atomic<std::uint64_t> _recorded{0};
    std::atomic<std::uint64_t> _dropped{0};
    std::atomic<std::uint32_t> _nextTid{1};
    std::mutex _mu; ///< guards _buffers and _retired
    std::vector<std::shared_ptr<ThreadBuffer>> _buffers;
    std::vector<Event> _retired;
};

/** An opening time read earlier on the tracing clock (nowNs()). */
struct Since
{
    std::uint64_t ns;
};

/**
 * RAII stage: reads the tracing clock at most twice, when it opens and
 * when it closes, and gives that one duration to every collector on at
 * open and to end()'s caller. Names and categories must be string
 * literals (or otherwise outlive the collectors): stages never copy
 * them, which keeps the off path free of allocation.
 */
class Span
{
  public:
    /**
     * Opens now; reads the clock only when a collector is on or the
     * caller wants end()'s duration (@p timed). A null @p name is a
     * bare timer that feeds no collector.
     */
    explicit Span(const char *name, const char *category = "hcm",
                  bool timed = false)
        : _name(name),
          _category(category),
          _sinks(name ? sink::on.load(std::memory_order_relaxed) : 0u),
          _open(_sinks != 0 || timed),
          _startNs(_open ? openAt(Tracer::nowNs()) : 0)
    {
    }

    /** Opens at @p start, possibly read on another thread (a queue
     *  wait); always timed. */
    Span(const char *name, const char *category, Since start)
        : _name(name),
          _category(category),
          _sinks(sink::on.load(std::memory_order_relaxed)),
          _open(true),
          _startNs(openAt(start.ns))
    {
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** With no collector on, an unread duration is never read. */
    ~Span()
    {
        if (_sinks != 0)
            end();
    }

    /** True when the trace collector takes this span (args kept). */
    bool active() const { return _sinks & sink::kTrace; }

    /** The opening time on the tracing clock; 0 when untimed. */
    std::uint64_t startNs() const { return _startNs; }

    /** Attach a key=value annotation (kept only for the trace). */
    template <typename T>
    void
    arg(const char *key, const T &value)
    {
        if (active() && _open)
            _args.push_back(TraceArg{key, detail::concat(value)});
    }

    /** Close now and return the duration in ns (0 when untimed);
     *  later calls return it again and feed nothing. */
    std::uint64_t
    end()
    {
        if (_open) {
            _open = false;
            std::uint64_t now = Tracer::nowNs();
            _durNs = now > _startNs ? now - _startNs : 0;
            if (_sinks & sink::kTrace)
                Tracer::instance().recordSpan(_name, _category, _startNs,
                                              _durNs, std::move(_args));
            if (_sinks & sink::kProfile)
                Profiler::instance().exit(_durNs);
        }
        return _durNs;
    }

  private:
    /**
     * Open the profile frame if profiling; returns @p start_ns. Runs
     * in the member initializers, before _args exists, and hands the
     * collectors values rather than `this`: a stage with nothing on
     * then compiles down to the one load.
     */
    std::uint64_t
    openAt(std::uint64_t start_ns)
    {
        if (_sinks & sink::kProfile)
            Profiler::instance().enter(_name);
        return start_ns;
    }

    const char *_name;
    const char *_category;
    unsigned _sinks; ///< sink::on at open
    bool _open;      ///< timed and not yet ended
    std::uint64_t _startNs;
    std::uint64_t _durNs = 0;
    std::vector<TraceArg> _args;
};

} // namespace obs
} // namespace hcm

#endif // HCM_OBS_TRACE_HH
