#include "cache.hh"

#include <algorithm>
#include <functional>
#include <utility>

namespace hcm {
namespace svc {

void
CacheStats::writeJson(JsonWriter &json) const
{
    json.beginObject();
    json.kv("hits", hits);
    json.kv("misses", misses);
    json.kv("evictions", evictions);
    json.kv("entries", entries);
    json.kv("bytes", bytes);
    json.kv("capacity", capacity);
    json.kv("hitRate", hitRate());
    json.endObject();
}

void
CacheStats::writePrometheus(std::ostream &out) const
{
    out << "# TYPE hcm_svc_cache_hits_total counter\n"
        << "hcm_svc_cache_hits_total " << hits << "\n"
        << "# TYPE hcm_svc_cache_misses_total counter\n"
        << "hcm_svc_cache_misses_total " << misses << "\n"
        << "# TYPE hcm_svc_cache_evictions_total counter\n"
        << "hcm_svc_cache_evictions_total " << evictions << "\n"
        << "# TYPE hcm_svc_cache_entries gauge\n"
        << "hcm_svc_cache_entries " << entries << "\n"
        << "# TYPE hcm_svc_cache_bytes gauge\n"
        << "hcm_svc_cache_bytes " << bytes << "\n"
        << "# TYPE hcm_svc_cache_capacity gauge\n"
        << "hcm_svc_cache_capacity " << capacity << "\n";
}

QueryCache::QueryCache(std::size_t capacity, std::size_t shards)
    : _capacity(capacity)
{
    std::size_t count = std::max<std::size_t>(1, shards);
    if (_capacity > 0)
        count = std::min(count, _capacity);
    // Per-shard share of the budget, rounded up so the total is never
    // below the requested capacity.
    _perShardCapacity =
        _capacity > 0 ? (_capacity + count - 1) / count : 0;
    for (std::size_t i = 0; i < count; ++i)
        _shards.emplace_back();
}

namespace {

std::size_t
bytesOf(const std::shared_ptr<const Answer> &answer)
{
    return answer ? answer->packedBytes() : 0;
}

} // namespace

QueryCache::Shard &
QueryCache::shardFor(const std::string &key)
{
    return _shards[std::hash<std::string>{}(key) % _shards.size()];
}

void
QueryCache::Shard::unlink(Entry &e)
{
    Slot &slot = e.second;
    (slot.newer ? slot.newer->second.older : newest) = slot.older;
    (slot.older ? slot.older->second.newer : oldest) = slot.newer;
    slot.newer = slot.older = nullptr;
}

void
QueryCache::Shard::pushNewest(Entry &e)
{
    e.second.older = newest;
    (newest ? newest->second.newer : oldest) = &e;
    newest = &e;
}

std::shared_ptr<const Answer>
QueryCache::get(const std::string &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        ++shard.misses;
        return nullptr;
    }
    ++shard.hits;
    shard.unlink(*it);
    shard.pushNewest(*it);
    return it->second.answer;
}

std::shared_ptr<const Answer>
QueryCache::peek(const std::string &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end())
        return nullptr;
    // No promotion: a peek must not reorder the entry, or internal
    // double-checks would distort the eviction order get() maintains.
    return it->second.answer;
}

void
QueryCache::put(const std::string &key, std::shared_ptr<const Answer> value)
{
    if (_perShardCapacity == 0)
        return; // storage disabled
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        shard.bytes -= bytesOf(it->second.answer);
        shard.bytes += bytesOf(value);
        it->second.answer = std::move(value);
        shard.unlink(*it);
        shard.pushNewest(*it);
        return;
    }
    if (shard.index.size() >= _perShardCapacity) {
        Entry &victim = *shard.oldest;
        shard.unlink(victim);
        shard.bytes -= bytesOf(victim.second.answer);
        // Erase by iterator: the victim's key lives in the node that
        // erase() frees.
        shard.index.erase(shard.index.find(victim.first));
        ++shard.evictions;
    }
    shard.bytes += bytesOf(value);
    auto fresh = shard.index.emplace(key, Slot{std::move(value)}).first;
    shard.pushNewest(*fresh);
}

void
QueryCache::clear()
{
    for (Shard &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.index.clear();
        shard.newest = shard.oldest = nullptr;
        shard.bytes = 0;
    }
}

CacheStats
QueryCache::stats() const
{
    CacheStats out;
    // Report what can actually become resident: the per-shard budget
    // is the requested capacity rounded up to a multiple of the shard
    // count, so the effective total may exceed the request (e.g. 10
    // entries over 4 shards admit 12). `entries <= capacity` holds
    // against this number, not the requested one.
    out.capacity = capacity();
    for (const Shard &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        out.hits += shard.hits;
        out.misses += shard.misses;
        out.evictions += shard.evictions;
        out.entries += shard.index.size();
        out.bytes += shard.bytes;
    }
    return out;
}

} // namespace svc
} // namespace hcm
