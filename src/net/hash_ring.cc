#include "hash_ring.hh"

#include <algorithm>

namespace hcm {
namespace net {

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

namespace {

/**
 * Murmur3's 64-bit finalizer. Raw FNV-1a of short, near-identical
 * strings ("shard-0#17" vs "shard-1#17") clusters in the high bits,
 * and the ring orders points by the FULL 64-bit value — without this
 * avalanche step a 2-shard ring measured an 18/82 key split.
 */
std::uint64_t
mix64(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

/** Position of @p text on the ring (points and keys alike). */
std::uint64_t
ringPoint(const std::string &text)
{
    return mix64(fnv1a64(text));
}

} // namespace

void
HashRing::addShard(const std::string &shard)
{
    if (std::find(_shards.begin(), _shards.end(), shard) !=
        _shards.end())
        return;
    std::size_t s = _shards.size();
    _shards.push_back(shard);
    for (std::size_t i = 0; i < kReplicas; ++i)
        _ring.emplace_back(ringPoint(shard + "#" + std::to_string(i)), s);
    // Ties (hash collisions between shards) resolve by shard index so
    // placement never depends on sort stability.
    std::sort(_ring.begin(), _ring.end());
}

std::size_t
HashRing::shardIndexFor(const std::string &key) const
{
    if (_ring.empty())
        return npos;
    std::uint64_t h = ringPoint(key);
    auto it = std::lower_bound(
        _ring.begin(), _ring.end(), h,
        [](const std::pair<std::uint64_t, std::size_t> &point,
           std::uint64_t value) { return point.first < value; });
    if (it == _ring.end())
        it = _ring.begin(); // wrap past the top of the ring
    return it->second;
}

const std::string *
HashRing::shardFor(const std::string &key) const
{
    std::size_t index = shardIndexFor(key);
    return index == npos ? nullptr : &_shards[index];
}

} // namespace net
} // namespace hcm
