/**
 * @file
 * Scoped continuous profiler layered on the trace spans. Where the
 * tracer answers "what happened when" with one event per span, the
 * profiler answers "where does the time go" by aggregating every
 * completed scope into a per-call-site tree: call counts, inclusive
 * wall time, and self time (inclusive minus children). Scopes nest on
 * a per-thread stack, so the tree mirrors the dynamic call structure
 * of the instrumented paths (svc.batch -> svc.query ->
 * svc.cache.lookup, sim.run -> sim.phase, ...). Exports are
 * collapsed-stack text (one `a;b;c self_ns` line per call site,
 * directly consumable by flamegraph.pl / speedscope) and a compact
 * JSON tree (the serve {"type":"profile"} control verb).
 *
 * Profiling is off by default and cheap enough to stay compiled in:
 * a disabled prof::Scope costs the underlying disabled obs::Span (one
 * relaxed atomic load) plus one more relaxed load. Enabled, each
 * scope takes one short uncontended lock on its thread's tree.
 */

#ifndef HCM_PROF_PROFILER_HH
#define HCM_PROF_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/trace.hh"

namespace hcm {
namespace prof {

class Scope;

/**
 * Process-wide profile collector. Threads aggregate into thread-local
 * call trees registered here; exporters merge the per-thread trees by
 * call path into one aggregate tree. Aggregation is cumulative until
 * clear().
 */
class Profiler
{
  public:
    static Profiler &instance();

    void setEnabled(bool on);

    bool
    enabled() const
    {
        return _enabled.load(std::memory_order_relaxed);
    }

    /**
     * Attribute one completed call of @p name, @p dur_ns long, under
     * the calling thread's current scope stack. For durations no RAII
     * scope brackets (queue wait measured across threads); a no-op
     * when disabled.
     */
    void record(const char *name, std::uint64_t dur_ns);

    /**
     * Collapsed-stack text: one `root;child;leaf <self_ns>` line per
     * call site with nonzero self time (or no children), threads
     * merged, paths in deterministic (alphabetical) order. Feed it to
     * flamegraph.pl or paste into speedscope.
     */
    void writeCollapsed(std::ostream &out);

    /**
     * Compact JSON tree on one line: {"sites": N, "roots": [{"name",
     * "calls", "totalNs", "selfNs", "children": [...]}, ...]}.
     */
    void writeJson(std::ostream &out);

    /** Call sites recorded across all threads, before path-merging
     *  (so a site hit by N threads counts N times; roots excluded). */
    std::size_t siteCount();

    /** Drop every aggregated call site and active scope frame. */
    void clear();

  private:
    friend class Scope;

    /** One call site within one thread's tree. */
    struct Node
    {
        const char *name;
        std::uint32_t parent;
        std::uint64_t calls = 0;
        std::uint64_t totalNs = 0;
        std::uint64_t childNs = 0;
        std::vector<std::uint32_t> children{};
    };

    /** A thread's private call tree plus its active-scope stack. */
    struct ThreadProfile
    {
        struct Frame
        {
            std::uint32_t node;
            std::uint64_t startNs;
        };

        ThreadProfile()
        {
            nodes.push_back(Node{"", 0}); // synthetic root
        }

        std::mutex mu;
        std::vector<Node> nodes;
        std::vector<Frame> stack;
    };

    Profiler() = default;

    ThreadProfile &localProfile();

    /** Find or create @p name under @p parent (caller holds tp.mu). */
    std::uint32_t childOf(ThreadProfile &tp, std::uint32_t parent,
                          const char *name);

    /** Push a frame for @p name; returns the thread's profile. */
    ThreadProfile &enterScope(const char *name);

    /** Pop the top frame of @p tp and charge its elapsed time. */
    void exitScope(ThreadProfile &tp);

    /** Merge every thread's tree and emit it (shared exporter body). */
    void writeAggregate(std::ostream &out, bool as_json);

    std::atomic<bool> _enabled{false};
    std::mutex _mu; ///< guards _profiles
    std::vector<std::shared_ptr<ThreadProfile>> _profiles;
};

/**
 * RAII profiled span: an obs::Span (trace integration) plus a frame
 * in the profiler's call tree. This is what the instrumented svc/sim
 * call sites construct, so one call site feeds the trace, the profile,
 * or both, depending on which collectors are enabled. Names must be
 * string literals, as for obs::Span.
 */
class Scope
{
  public:
    explicit Scope(const char *name, const char *category = "hcm")
        : _span(name, category)
    {
        Profiler &profiler = Profiler::instance();
        if (profiler.enabled())
            _profile = &profiler.enterScope(name);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    ~Scope() { end(); }

    /** Attach a key=value annotation to the trace span. */
    template <typename T>
    void
    arg(const char *key, const T &value)
    {
        _span.arg(key, value);
    }

    /** Record now instead of at scope exit (idempotent). */
    void
    end()
    {
        _span.end();
        if (_profile) {
            Profiler::instance().exitScope(*_profile);
            _profile = nullptr;
        }
    }

  private:
    obs::Span _span;
    Profiler::ThreadProfile *_profile = nullptr;
};

} // namespace prof
} // namespace hcm

#endif // HCM_PROF_PROFILER_HH
