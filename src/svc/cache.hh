/**
 * @file
 * Sharded LRU memoization cache for rendered answers. Keys are the
 * canonical query strings; values are immutable shared Answers, so a
 * hit is a pointer copy and readers never block evaluators for long.
 * Sharding by key hash splits the lock so concurrent workers rarely
 * contend; each shard keeps its own LRU order, hit/miss/eviction
 * counters and the packed answer bytes it holds, aggregated on demand. An entry is one hash-map node — the
 * key, the answer pointer and the LRU links threaded through the
 * nodes — so the key is stored once.
 */

#ifndef HCM_SVC_CACHE_HH
#define HCM_SVC_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>

#include "svc/query.hh"
#include "util/json.hh"

namespace hcm {
namespace svc {

/** Aggregated cache counters. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    /** Packed answer bytes the entries hold (Answer::packedBytes()). */
    std::size_t bytes = 0;
    std::size_t capacity = 0;

    std::uint64_t lookups() const { return hits + misses; }

    double
    hitRate() const
    {
        return lookups() ? static_cast<double>(hits) / lookups() : 0.0;
    }

    /** Emit {"hits": ..., "hitRate": ...} (one JSON object). */
    void writeJson(JsonWriter &json) const;

    /** The same counters as hcm_svc_cache_* Prometheus series. */
    void writePrometheus(std::ostream &out) const;
};

/** Sharded LRU cache: canonical key -> shared immutable answer. */
class QueryCache
{
  public:
    /**
     * @p capacity total entries across shards (0 disables storage:
     * every lookup misses, puts are dropped). @p shards is clamped to
     * [1, capacity] so each shard holds at least one entry. The
     * per-shard budget is capacity/shards rounded up, so capacity()
     * reports the (possibly larger) effective total.
     */
    explicit QueryCache(std::size_t capacity, std::size_t shards = 8);

    QueryCache(const QueryCache &) = delete;
    QueryCache &operator=(const QueryCache &) = delete;

    /** Answer for @p key, bumping it to most-recent; null on miss. */
    std::shared_ptr<const Answer> get(const std::string &key);

    /**
     * Read-only lookup: touches neither the hit/miss counters nor the
     * recency order — for internal double-checks that must not count
     * one query twice or distort eviction.
     */
    std::shared_ptr<const Answer> peek(const std::string &key);

    /**
     * Insert (or refresh) @p key, evicting the least-recently-used
     * entry of the shard when it is full.
     */
    void put(const std::string &key, std::shared_ptr<const Answer> value);

    /** Drop every entry (counters survive). */
    void clear();

    CacheStats stats() const;

    /**
     * Effective total capacity: shards x per-shard budget. At least
     * the requested capacity, and more when the round-up to whole
     * shards leaves headroom; stats().entries never exceeds it.
     */
    std::size_t
    capacity() const
    {
        return _perShardCapacity * _shards.size();
    }

    /** The capacity the constructor was asked for. */
    std::size_t requestedCapacity() const { return _capacity; }

    std::size_t shardCount() const { return _shards.size(); }

  private:
    struct Slot;
    /** One entry: the map node's key and its slot. */
    using Entry = std::pair<const std::string, Slot>;

    struct Slot
    {
        std::shared_ptr<const Answer> answer;
        Entry *newer = nullptr; ///< toward the most recently used
        Entry *older = nullptr; ///< toward the eviction victim
    };

    struct Shard
    {
        mutable std::mutex mu;
        /** Node addresses survive rehashing, so the links stay valid. */
        std::unordered_map<std::string, Slot> index;
        Entry *newest = nullptr;
        Entry *oldest = nullptr;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        /** Packed answer bytes held (mu held to read or write). */
        std::size_t bytes = 0;

        /** Take @p e out of the recency order (mu held). */
        void unlink(Entry &e);
        /** Make @p e the most recently used (mu held; e unlinked). */
        void pushNewest(Entry &e);
    };

    Shard &shardFor(const std::string &key);

    std::size_t _capacity;
    std::size_t _perShardCapacity;
    /** deque: shards hold a mutex and must never relocate. */
    std::deque<Shard> _shards;
};

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_CACHE_HH
