/**
 * @file
 * Hardware performance counters via Linux perf_event_open. A
 * PerfCounterGroup opens one counter *group* — instructions, cycles,
 * LLC loads/misses, branches/misses, task-clock — so every member is
 * scheduled onto the PMU together and ratios (IPC, miss rates) are
 * coherent: they come from the same slice of execution. Reads are
 * cumulative: a caller opens a group, reads it before and after one
 * whole measured loop, and takes the delta (deltaSince). Counters
 * bracket whole loops only, never individual call sites.
 *
 * Availability is a first-class state, not an error: perf_event_open
 * fails routinely (kernel.perf_event_paranoid, seccomp in containers,
 * non-Linux hosts, PMUs without an LLC event). A group that cannot
 * open reports unavailable() with the reason and the kernel's paranoid
 * level, optional events degrade individually, and everything above
 * this layer must keep working with counter fields explicitly marked
 * unavailable rather than zeroed.
 */

#ifndef HCM_HWC_PERF_COUNTERS_HH
#define HCM_HWC_PERF_COUNTERS_HH

#include <cstdint>
#include <optional>
#include <string>

namespace hcm {
namespace hwc {

/**
 * One cumulative (or delta) counter reading. `available` is the master
 * switch: when false every count is meaningless and must be reported
 * as unavailable, never as zero. LLC and branch events are optional
 * group members (some PMUs lack them); their `has*` flags say whether
 * the corresponding counts are real.
 */
struct CounterSample
{
    bool available = false;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    bool hasLlc = false;
    std::uint64_t llcLoads = 0;
    std::uint64_t llcMisses = 0;
    bool hasBranches = false;
    std::uint64_t branches = 0;
    std::uint64_t branchMisses = 0;
    /** CPU time the group's task-clock saw, in nanoseconds. */
    std::uint64_t taskClockNs = 0;

    /** Instructions per cycle (0 when cycles is 0 or unavailable). */
    double
    ipc() const
    {
        return available && cycles > 0
                   ? static_cast<double>(instructions) /
                         static_cast<double>(cycles)
                   : 0.0;
    }

    /** LLC misses / LLC loads (0 when not measured or no loads). */
    double
    llcMissRate() const
    {
        return available && hasLlc && llcLoads > 0
                   ? static_cast<double>(llcMisses) /
                         static_cast<double>(llcLoads)
                   : 0.0;
    }

    /** Branch misses / branches (0 when not measured). */
    double
    branchMissRate() const
    {
        return available && hasBranches && branches > 0
                   ? static_cast<double>(branchMisses) /
                         static_cast<double>(branches)
                   : 0.0;
    }

    /** this - start, field by field (presence flags intersect). */
    CounterSample deltaSince(const CounterSample &start) const;
};

/**
 * The kernel's perf_event_paranoid level (-1..4 on real kernels);
 * nullopt where /proc/sys/kernel/perf_event_paranoid does not exist
 * (non-Linux, masked /proc). Level 2 still permits self-profiling;
 * 3+ (Debian/containers) typically blocks unprivileged users.
 */
std::optional<int> perfEventParanoid();

/** What a host offers, as recorded in telemetry metadata. */
struct Availability
{
    bool available = false;
    std::string reason; ///< empty when available
    /** kernel.perf_event_paranoid; -1 when the file does not exist. */
    int perfEventParanoid = -1;
};

/**
 * Probe what this host offers: opens a throwaway group on the calling
 * thread once, then returns the cached answer. The first probe on a
 * host without counters logs the process's one structured
 * "hardware counters unavailable" warning. `hcm bench` metadata and
 * the self-roofline report both record this.
 */
Availability counterAvailability();

/**
 * A group of per-thread hardware counters. open() attaches the group
 * to the calling thread and enables it; read() returns cumulative
 * scaled counts from any point on. Not thread-safe: one group belongs
 * to one thread, and counts only that thread's work.
 */
class PerfCounterGroup
{
  public:
    /** Construction knobs (tests exercise the failure path with them). */
    struct Config
    {
        /**
         * When nonzero, open() fails as if perf_event_open set this
         * errno — the deterministic stand-in for EACCES (paranoid) and
         * ENOENT (unsupported event) used by the fallback-path tests.
         */
        int simulateOpenErrno = 0;
    };

    PerfCounterGroup() = default;
    explicit PerfCounterGroup(Config config) : _config(config) {}
    ~PerfCounterGroup();

    PerfCounterGroup(const PerfCounterGroup &) = delete;
    PerfCounterGroup &operator=(const PerfCounterGroup &) = delete;

    /**
     * Open and enable the group on the calling thread. False when the
     * required events (instructions + cycles) cannot be opened; the
     * reason lands in unavailableReason(). Optional events (LLC,
     * branches, task-clock) that fail to open are skipped silently —
     * their presence flags stay false in every sample. Idempotent.
     */
    bool open();

    /** True after a successful open(). */
    bool
    available() const
    {
        return _opened;
    }

    /**
     * Why open() failed, e.g. "perf_event_open failed: Permission
     * denied (errno 13, kernel.perf_event_paranoid=4)". Empty until
     * open() fails.
     */
    const std::string &
    unavailableReason() const
    {
        return _reason;
    }

    /**
     * Cumulative counts since open(), multiplex-scaled (when the PMU
     * time-shared the group, counts are scaled by enabled/running so
     * deltas stay comparable). sample.available mirrors available().
     */
    CounterSample read();

  private:
    void closeAll();

    Config _config;
    bool _opened = false;
    bool _openAttempted = false;
    std::string _reason;
    /** Group leader fd, then member fds (parallel to _slots). */
    int _leaderFd = -1;
    /** Event id -> CounterSample field routing, fixed at open(). */
    struct Slot
    {
        std::uint64_t id = 0;
        int field = -1; ///< index into the sample-field table
        int fd = -1;
    };
    static constexpr int kMaxSlots = 7;
    Slot _slots[kMaxSlots];
    int _slotCount = 0;
};

} // namespace hwc
} // namespace hcm

#endif // HCM_HWC_PERF_COUNTERS_HH
