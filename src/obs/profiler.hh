/**
 * @file
 * Continuous profiler, the second sink of the obs::Span stages: every
 * completed stage is aggregated into a per-call-site tree of call
 * counts, inclusive wall time and self time (inclusive minus
 * children). Stages nest on a per-thread stack, so the tree mirrors the
 * dynamic call structure (net.frame -> net.route -> net.dispatch ->
 * svc.query -> svc.cache.lookup, sim.run -> sim.phase, ...). Exports
 * are collapsed-stack text (one `a;b;c self_ns` line per call site, for
 * flamegraph.pl / speedscope) and a compact JSON tree (the serve
 * {"type":"profile"} control verb). The profiler reads no clock: each
 * stage hands it the duration the trace span gets. Off by default;
 * enabled, a stage takes one short uncontended lock on its thread's
 * tree when it opens and when it closes.
 */

#ifndef HCM_OBS_PROFILER_HH
#define HCM_OBS_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace hcm {
namespace obs {

/**
 * The collectors' on bits in one word, so a stage learns every sink it
 * must feed from one relaxed load.
 */
namespace sink {

enum Bit : unsigned { kTrace = 1u, kProfile = 2u };

inline std::atomic<unsigned> on{0};

inline void
set(Bit bit, bool enabled)
{
    if (enabled)
        on.fetch_or(bit, std::memory_order_relaxed);
    else
        on.fetch_and(~static_cast<unsigned>(bit), std::memory_order_relaxed);
}

} // namespace sink

class Span;

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

    void setEnabled(bool on) { sink::set(sink::kProfile, on); }

    bool
    enabled() const
    {
        return sink::on.load(std::memory_order_relaxed) & sink::kProfile;
    }

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

    /** Drop every aggregated call site and active stage frame. */
    void clear();

  private:
    friend class Span;

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

    /** A thread's private call tree plus its open-stage stack. */
    struct ThreadProfile
    {
        ThreadProfile()
        {
            nodes.push_back(Node{"", 0}); // synthetic root
        }

        std::mutex mu;
        std::vector<Node> nodes;
        std::vector<std::uint32_t> stack; ///< node of each open stage
    };

    Profiler() = default;

    ThreadProfile &localProfile();

    /** Find or create @p name under @p parent (caller holds tp.mu). */
    std::uint32_t childOf(ThreadProfile &tp, std::uint32_t parent,
                          const char *name);

    /** Open a frame for @p name on this thread's stack. */
    void enter(const char *name);

    /** Close this thread's top frame, charging it @p dur_ns (a stage
     *  closes on the thread that opened it). */
    void exit(std::uint64_t dur_ns);

    /** Merge every thread's tree and emit it (shared exporter body). */
    void writeAggregate(std::ostream &out, bool as_json);

    std::mutex _mu; ///< guards _profiles
    std::vector<std::shared_ptr<ThreadProfile>> _profiles;
};

} // namespace obs
} // namespace hcm

#endif // HCM_OBS_PROFILER_HH
