/**
 * @file
 * Consistent-hash ring over the canonical memoization-key space. Each
 * shard contributes kReplicas virtual points on a 64-bit ring
 * (FNV-1a of "<shard>#<i>", passed through a 64-bit avalanche
 * finalizer — raw FNV of short, similar strings clusters); a key
 * belongs to the first shard point at or after its own hash, wrapping
 * at the top. Two properties the serving
 * tier depends on, both locked down by tests:
 *
 *  - partition: every key maps to exactly one shard, so shard caches
 *    never duplicate entries — N shards really hold N x capacity
 *    distinct designs;
 *  - stability: a ring without one of its shards places only the keys
 *    that shard owned elsewhere; everything else keeps its placement
 *    (and its warm cache).
 *
 * The ring is deterministic across processes and platforms — a front
 * door and an offline capacity planner given the same shard names
 * agree on every placement.
 */

#ifndef HCM_NET_HASH_RING_HH
#define HCM_NET_HASH_RING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hcm {
namespace net {

/** FNV-1a 64-bit, the ring's (and tests') hash primitive. */
std::uint64_t fnv1a64(const std::string &text);

/** Deterministic consistent-hash ring of named shards. */
class HashRing
{
  public:
    /** Virtual points per shard; more = smoother key distribution. */
    static constexpr std::size_t kReplicas = 97;

    /** Add @p shard (idempotent; duplicate names are ignored). */
    void addShard(const std::string &shard);

    std::size_t shardCount() const { return _shards.size(); }
    const std::vector<std::string> &shards() const { return _shards; }

    /**
     * The shard owning @p key, or nullptr for an empty ring. The
     * pointer stays valid until the ring next changes.
     */
    const std::string *shardFor(const std::string &key) const;

    /** shardFor() as an index into shards(); npos for an empty ring. */
    std::size_t shardIndexFor(const std::string &key) const;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  private:
    std::vector<std::string> _shards; ///< insertion order
    /** (point hash, shard index), sorted by hash. */
    std::vector<std::pair<std::uint64_t, std::size_t>> _ring;
};

} // namespace net
} // namespace hcm

#endif // HCM_NET_HASH_RING_HH
