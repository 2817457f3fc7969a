/**
 * @file
 * Per-process flight recorder: a bounded ring of the last N completed
 * requests, each with its trace id, latency breakdown, and outcome.
 * Metrics aggregate away the individual request and traces cost a
 * restart to enable; the flight recorder is the middle ground — always
 * on (when sized), cheap (one short mutex hold per request), and
 * dumped on demand through the "requests" control verb, so "what just
 * happened on shard 2" has an answer after the fact.
 */

#ifndef HCM_SVC_FLIGHT_RECORDER_HH
#define HCM_SVC_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "svc/query.hh"
#include "util/json.hh"

namespace hcm {
namespace svc {

/** One completed request as the recorder remembers it. */
struct RequestRecord
{
    std::string requestId; ///< trace context ("-" when none)
    std::string type;      ///< query type wire name
    std::string shard;     ///< owning shard (front door only; "" local)
    /** "ok", "hit", or a queryErrorKindName() string. */
    std::string outcome;
    std::uint64_t queueNs = 0; ///< admission -> dequeue
    std::uint64_t evalNs = 0;  ///< model evaluation
    std::uint64_t netNs = 0;   ///< shard round-trip (front door only)
};

/**
 * Process-wide bounded ring of RequestRecords. Disabled (capacity 0)
 * until configure()d — record() is then a single relaxed atomic load —
 * so library users and tests that never opt in pay nothing.
 */
class FlightRecorder
{
  public:
    static FlightRecorder &instance();

    /**
     * Size the ring to @p capacity records (0 disables); drops
     * everything recorded so far. Not meant for concurrent use with
     * record() — processes configure once at startup.
     */
    void configure(std::size_t capacity);

    bool
    enabled() const
    {
        return _capacity.load(std::memory_order_relaxed) > 0;
    }

    /** Append one record, evicting the oldest past capacity. */
    void record(RequestRecord rec);

    /** Records currently held, oldest first. */
    std::vector<RequestRecord> snapshot() const;

    /** Requests seen since configure() (including evicted ones). */
    std::uint64_t recordedTotal() const;

    /**
     * Emit {"capacity": N, "recorded": M, "records": [{"requestId",
     * "type", "shard", "outcome", "queueMs", "evalMs", "netMs"}, ...]}
     * oldest first — the "requests" control verb's payload.
     */
    void writeJson(JsonWriter &json) const;

  private:
    FlightRecorder() = default;

    std::atomic<std::size_t> _capacity{0};
    mutable std::mutex _mu; ///< guards _ring, _next, _recorded
    std::vector<RequestRecord> _ring;
    std::size_t _next = 0; ///< ring slot the next record lands in
    std::uint64_t _recorded = 0;
};

/** Record @p q when the recorder is on, with its stages' durations;
 *  @p shard is the owning shard at a front door ("" when local). */
void recordFlight(const Query &q, const char *outcome,
                  std::uint64_t queue_ns, std::uint64_t eval_ns,
                  std::uint64_t net_ns = 0, const std::string &shard = "");

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_FLIGHT_RECORDER_HH
