/**
 * @file
 * Sharded LRU memoization cache for rendered answers. Keys are the
 * canonical query keys; values are immutable shared Answers, so a hit
 * is a pointer copy and readers never block evaluators for long.
 *
 * Sharding by key hash splits the lock so concurrent workers rarely
 * contend; each shard keeps its own LRU order, hit/miss/eviction
 * counters and the packed answer bytes it holds, aggregated on demand.
 *
 * A shard is one array of slots, filled on demand up to its budget,
 * and an open-addressing index of slot numbers. A slot holds the key
 * (inline up to 11 bytes, the size of a record key), the key's hash,
 * the answer pointer and its LRU neighbours as slot numbers. An
 * eviction reuses the victim's slot, so a full cache allocates nothing
 * of its own.
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
#include <string_view>
#include <vector>

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
     * reports the (possibly larger) effective total. Slots are
     * numbered in 32 bits, which caps the budget at 2^32 - 2 entries.
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
    /** The slot number that links and index cells use for "none". */
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /**
     * A key's bytes: up to kInline of them inline, a longer key (one
     * with an out-of-registry node or scenario) in a heap string.
     */
    class SlotKey
    {
      public:
        static constexpr std::size_t kInline = 11;

        SlotKey() = default;
        /** Moves as the slot array grows; @p other is left empty. */
        SlotKey(SlotKey &&other) noexcept;
        SlotKey &operator=(SlotKey &&other) = delete;
        ~SlotKey() { release(); }

        void assign(std::string_view key);
        std::string_view view() const;

      private:
        /** _len's value when the key lives in a heap string. */
        static constexpr std::uint8_t kSpilled = 0xff;

        /** The heap string's address, kept in _bytes (_len kSpilled). */
        std::string *spilled() const;
        void release();

        std::uint8_t _len = 0;
        char _bytes[kInline] = {};
    };

    struct Slot
    {
        std::shared_ptr<const Answer> answer;
        /** The key hash's high half: the slot's home in the index. */
        std::uint32_t hash = 0;
        std::uint32_t newer = kNoSlot; ///< toward the most recently used
        std::uint32_t older = kNoSlot; ///< toward the eviction victim
        SlotKey key;
    };

    struct Shard
    {
        mutable std::mutex mu;
        /** Grows on demand up to the per-shard budget, never past it. */
        std::vector<Slot> slots;
        /**
         * Linear-probing table of slot numbers (kNoSlot when free),
         * a power of two at least twice the slot array's capacity.
         */
        std::vector<std::uint32_t> index;
        std::uint32_t newest = kNoSlot;
        std::uint32_t oldest = kNoSlot;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        /** Packed answer bytes held (mu held to read or write). */
        std::size_t bytes = 0;

        /** The slot holding @p key, or kNoSlot (mu held). */
        std::uint32_t find(std::string_view key, std::uint32_t hash) const;
        /** A new slot, grown within @p budget (mu held; not full). */
        std::uint32_t addSlot(std::size_t budget);
        /** Enter slot @p s into the index by its hash (mu held). */
        void indexInsert(std::uint32_t s);
        /** Take slot @p s out of the index (mu held). */
        void indexErase(std::uint32_t s);
        /** Take slot @p s out of the recency order (mu held). */
        void unlink(std::uint32_t s);
        /** Make slot @p s the most recently used (mu held; unlinked). */
        void pushNewest(std::uint32_t s);
    };

    /** The key's shard and its hash within it. */
    struct Home
    {
        Shard &shard;
        std::uint32_t hash;
    };

    Home homeOf(std::string_view key);

    std::size_t _capacity;
    std::size_t _perShardCapacity;
    /** deque: shards hold a mutex and must never relocate. */
    std::deque<Shard> _shards;
};

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_CACHE_HH
