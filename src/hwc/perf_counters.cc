#include "perf_counters.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "util/logging.hh"

namespace hcm {
namespace hwc {

namespace {

/** Sample-field indices Slot::field routes read values into. */
enum Field {
    kInstructions = 0,
    kCycles,
    kLlcLoads,
    kLlcMisses,
    kBranches,
    kBranchMisses,
    kTaskClock,
};

} // namespace

CounterSample
CounterSample::deltaSince(const CounterSample &start) const
{
    CounterSample d;
    d.available = available && start.available;
    if (!d.available)
        return d;
    d.instructions = instructions - start.instructions;
    d.cycles = cycles - start.cycles;
    d.hasLlc = hasLlc && start.hasLlc;
    if (d.hasLlc) {
        d.llcLoads = llcLoads - start.llcLoads;
        d.llcMisses = llcMisses - start.llcMisses;
    }
    d.hasBranches = hasBranches && start.hasBranches;
    if (d.hasBranches) {
        d.branches = branches - start.branches;
        d.branchMisses = branchMisses - start.branchMisses;
    }
    d.taskClockNs = taskClockNs - start.taskClockNs;
    return d;
}

std::optional<int>
perfEventParanoid()
{
    std::FILE *f =
        std::fopen("/proc/sys/kernel/perf_event_paranoid", "r");
    if (!f)
        return std::nullopt;
    int level = 0;
    int got = std::fscanf(f, "%d", &level);
    std::fclose(f);
    if (got != 1)
        return std::nullopt;
    return level;
}

Availability
counterAvailability()
{
    static std::once_flag once;
    static Availability probed;
    std::call_once(once, [] {
        PerfCounterGroup group;
        probed.available = group.open();
        probed.reason = group.unavailableReason();
        auto paranoid = perfEventParanoid();
        probed.perfEventParanoid = paranoid ? *paranoid : -1;
        if (!probed.available)
            hcm_warn("hardware counters unavailable; telemetry degrades "
                     "to wall time",
                     logField("reason", probed.reason),
                     logField("perf_event_paranoid",
                              paranoid ? std::to_string(*paranoid)
                                       : "n/a"));
    });
    return probed;
}

PerfCounterGroup::~PerfCounterGroup()
{
    closeAll();
}

void
PerfCounterGroup::closeAll()
{
#ifdef __linux__
    for (int i = 0; i < _slotCount; ++i) {
        if (_slots[i].fd >= 0)
            ::close(_slots[i].fd);
        _slots[i].fd = -1;
    }
#endif
    _slotCount = 0;
    _leaderFd = -1;
    _opened = false;
}

#ifdef __linux__

namespace {

/** perf_event_open has no glibc wrapper. */
int
perfEventOpen(perf_event_attr *attr, pid_t pid, int cpu, int group_fd,
              unsigned long flags)
{
    return static_cast<int>(
        ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd,
                  flags));
}

/** Attr shared by every member of the group. */
perf_event_attr
baseAttr(std::uint32_t type, std::uint64_t config)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.disabled = 0; // members follow the leader's enable state
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    return attr;
}

constexpr std::uint64_t
cacheConfig(std::uint64_t cache, std::uint64_t op, std::uint64_t result)
{
    return cache | (op << 8) | (result << 16);
}

} // namespace

bool
PerfCounterGroup::open()
{
    if (_openAttempted)
        return _opened;
    _openAttempted = true;

    if (_config.simulateOpenErrno != 0) {
        errno = _config.simulateOpenErrno;
    } else {
        // Required pair first: instructions lead the group (the IPC
        // numerator is the one count nothing downstream can fake).
        perf_event_attr leader =
            baseAttr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
        leader.disabled = 1; // enabled once the group is assembled
        _leaderFd = perfEventOpen(&leader, 0, -1, -1, 0);
    }
    if (_config.simulateOpenErrno != 0 || _leaderFd < 0) {
        int err = errno;
        std::string reason =
            std::string("perf_event_open failed: ") +
            std::strerror(err) + " (errno " + std::to_string(err);
        if (auto paranoid = perfEventParanoid())
            reason += ", kernel.perf_event_paranoid=" +
                      std::to_string(*paranoid);
        reason += ")";
        _reason = reason;
        return false;
    }

    auto add = [&](std::uint32_t type, std::uint64_t config, int field,
                   int fd_in) -> bool {
        int fd = fd_in;
        if (fd < 0) {
            perf_event_attr attr = baseAttr(type, config);
            fd = perfEventOpen(&attr, 0, -1, _leaderFd, 0);
            if (fd < 0)
                return false; // optional member: skip quietly
        }
        Slot &slot = _slots[_slotCount++];
        slot.fd = fd;
        slot.field = field;
        std::uint64_t id = 0;
        if (::ioctl(fd, PERF_EVENT_IOC_ID, &id) < 0) {
            // Without the id we cannot route this member's value;
            // treat it as absent (the read would misattribute counts).
            ::close(fd);
            --_slotCount;
            if (fd == _leaderFd)
                return false;
            return true;
        }
        slot.id = id;
        return true;
    };

    if (!add(0, 0, kInstructions, _leaderFd)) {
        _reason = "perf_event_open: cannot read group leader id";
        closeAll();
        return false;
    }
    perf_event_attr cycles =
        baseAttr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
    int cycles_fd = perfEventOpen(&cycles, 0, -1, _leaderFd, 0);
    if (cycles_fd < 0) {
        int err = errno;
        _reason = std::string("perf_event_open (cycles) failed: ") +
                  std::strerror(err) + " (errno " +
                  std::to_string(err) + ")";
        closeAll();
        return false;
    }
    add(0, 0, kCycles, cycles_fd);

    // Optional members: miss-rate and branch columns when the PMU has
    // them, absent (never zeroed) when it does not.
    add(PERF_TYPE_HW_CACHE,
        cacheConfig(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                    PERF_COUNT_HW_CACHE_RESULT_ACCESS),
        kLlcLoads, -1);
    add(PERF_TYPE_HW_CACHE,
        cacheConfig(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                    PERF_COUNT_HW_CACHE_RESULT_MISS),
        kLlcMisses, -1);
    add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS,
        kBranches, -1);
    add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, kBranchMisses,
        -1);
    add(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, kTaskClock, -1);

    // LLC loads without the miss twin (or vice versa) cannot make a
    // rate; drop the odd one so presence flags stay pairwise honest.
    bool has_loads = false, has_misses = false;
    for (int i = 0; i < _slotCount; ++i) {
        has_loads |= _slots[i].field == kLlcLoads;
        has_misses |= _slots[i].field == kLlcMisses;
    }
    if (has_loads != has_misses) {
        for (int i = 0; i < _slotCount; ++i) {
            if (_slots[i].field == kLlcLoads ||
                _slots[i].field == kLlcMisses) {
                ::close(_slots[i].fd);
                for (int j = i; j < _slotCount - 1; ++j)
                    _slots[j] = _slots[j + 1];
                --_slotCount;
                break;
            }
        }
    }

    if (::ioctl(_leaderFd, PERF_EVENT_IOC_RESET,
                PERF_IOC_FLAG_GROUP) < 0 ||
        ::ioctl(_leaderFd, PERF_EVENT_IOC_ENABLE,
                PERF_IOC_FLAG_GROUP) < 0) {
        int err = errno;
        _reason = std::string("perf counter group enable failed: ") +
                  std::strerror(err);
        closeAll();
        return false;
    }
    _opened = true;
    return true;
}

CounterSample
PerfCounterGroup::read()
{
    CounterSample sample;
    if (!_opened)
        return sample;

    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
    // then {value, id} per member.
    std::uint64_t buf[3 + 2 * kMaxSlots];
    ssize_t n = ::read(_leaderFd, buf, sizeof(buf));
    if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t)))
        return sample;
    std::uint64_t nr = buf[0];
    std::uint64_t enabled = buf[1];
    std::uint64_t running = buf[2];
    // Multiplex correction: when the PMU time-shared the group,
    // running < enabled and raw counts under-report proportionally.
    double scale = running > 0 ? static_cast<double>(enabled) /
                                     static_cast<double>(running)
                               : 0.0;
    if (scale <= 0.0)
        return sample;

    sample.available = true;
    bool have[kMaxSlots] = {};
    for (std::uint64_t i = 0;
         i < nr && 3 + 2 * i + 1 < sizeof(buf) / sizeof(buf[0]); ++i) {
        std::uint64_t value = buf[3 + 2 * i];
        std::uint64_t id = buf[3 + 2 * i + 1];
        for (int s = 0; s < _slotCount; ++s) {
            if (_slots[s].id != id)
                continue;
            auto scaled = static_cast<std::uint64_t>(
                static_cast<double>(value) * scale);
            switch (_slots[s].field) {
              case kInstructions:
                sample.instructions = scaled;
                break;
              case kCycles:
                sample.cycles = scaled;
                break;
              case kLlcLoads:
                sample.llcLoads = scaled;
                break;
              case kLlcMisses:
                sample.llcMisses = scaled;
                break;
              case kBranches:
                sample.branches = scaled;
                break;
              case kBranchMisses:
                sample.branchMisses = scaled;
                break;
              case kTaskClock:
                sample.taskClockNs = scaled;
                break;
            }
            have[_slots[s].field] = true;
            break;
        }
    }
    sample.hasLlc = have[kLlcLoads] && have[kLlcMisses];
    sample.hasBranches = have[kBranches] && have[kBranchMisses];
    if (!have[kInstructions] || !have[kCycles])
        sample.available = false;
    return sample;
}

#else // !__linux__

bool
PerfCounterGroup::open()
{
    if (_openAttempted)
        return _opened;
    _openAttempted = true;
    _reason = _config.simulateOpenErrno != 0
                  ? std::string("perf_event_open failed: errno ") +
                        std::to_string(_config.simulateOpenErrno)
                  : "hardware counters need Linux perf events "
                    "(unsupported platform)";
    return false;
}

CounterSample
PerfCounterGroup::read()
{
    return CounterSample{};
}

#endif // __linux__

} // namespace hwc
} // namespace hcm
