#include "cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>
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
    _perShardCapacity = std::min<std::size_t>(
        _capacity > 0 ? (_capacity + count - 1) / count : 0, kNoSlot - 1);
    for (std::size_t i = 0; i < count; ++i)
        _shards.emplace_back();
}

QueryCache::SlotKey::SlotKey(SlotKey &&other) noexcept : _len(other._len)
{
    std::memcpy(_bytes, other._bytes, sizeof _bytes);
    other._len = 0;
}

std::string *
QueryCache::SlotKey::spilled() const
{
    std::string *heap = nullptr;
    std::memcpy(&heap, _bytes, sizeof heap);
    return heap;
}

void
QueryCache::SlotKey::release()
{
    if (_len == kSpilled)
        delete spilled();
    _len = 0;
}

void
QueryCache::SlotKey::assign(std::string_view key)
{
    release();
    if (key.size() <= kInline) {
        std::memcpy(_bytes, key.data(), key.size());
        _len = static_cast<std::uint8_t>(key.size());
        return;
    }
    std::string *heap = new std::string(key);
    std::memcpy(_bytes, &heap, sizeof heap);
    _len = kSpilled;
}

std::string_view
QueryCache::SlotKey::view() const
{
    if (_len == kSpilled)
        return *spilled();
    return {_bytes, _len};
}

namespace {

std::size_t
bytesOf(const std::shared_ptr<const Answer> &answer)
{
    return answer ? answer->packedBytes() : 0;
}

} // namespace

QueryCache::Home
QueryCache::homeOf(std::string_view key)
{
    // One hash: its value modulo the shard count picks the shard, and
    // its high half the index cell (with a power-of-two shard count,
    // bits the shard choice never reads).
    std::uint64_t h = std::hash<std::string_view>{}(key);
    return {_shards[h % _shards.size()],
            static_cast<std::uint32_t>(h >> 32)};
}

std::uint32_t
QueryCache::Shard::find(std::string_view key, std::uint32_t hash) const
{
    if (index.empty())
        return kNoSlot;
    std::size_t mask = index.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        std::uint32_t s = index[i];
        if (s == kNoSlot ||
            (slots[s].hash == hash && slots[s].key.view() == key))
            return s;
    }
}

std::uint32_t
QueryCache::Shard::addSlot(std::size_t budget)
{
    if (slots.size() == slots.capacity()) {
        // Grow by doubling, never past the budget; the index keeps at
        // least two cells per slot, so probes stay short.
        slots.reserve(std::min(budget, std::max<std::size_t>(
                                           8, 2 * slots.capacity())));
        index.assign(std::bit_ceil(2 * slots.capacity()), kNoSlot);
        for (std::uint32_t s = 0; s < slots.size(); ++s)
            indexInsert(s);
    }
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
}

void
QueryCache::Shard::indexInsert(std::uint32_t s)
{
    std::size_t mask = index.size() - 1;
    std::size_t i = slots[s].hash & mask;
    while (index[i] != kNoSlot)
        i = (i + 1) & mask;
    index[i] = s;
}

void
QueryCache::Shard::indexErase(std::uint32_t s)
{
    std::size_t mask = index.size() - 1;
    std::size_t hole = slots[s].hash & mask;
    while (index[hole] != s)
        hole = (hole + 1) & mask;
    // Backward shift: pull each later entry of the probe run into the
    // hole unless its home lies after the hole, so no tombstones.
    for (std::size_t i = (hole + 1) & mask; index[i] != kNoSlot;
         i = (i + 1) & mask) {
        std::size_t home = slots[index[i]].hash & mask;
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            index[hole] = index[i];
            hole = i;
        }
    }
    index[hole] = kNoSlot;
}

void
QueryCache::Shard::unlink(std::uint32_t s)
{
    Slot &slot = slots[s];
    (slot.newer != kNoSlot ? slots[slot.newer].older : newest) = slot.older;
    (slot.older != kNoSlot ? slots[slot.older].newer : oldest) = slot.newer;
    slot.newer = slot.older = kNoSlot;
}

void
QueryCache::Shard::pushNewest(std::uint32_t s)
{
    slots[s].older = newest;
    (newest != kNoSlot ? slots[newest].newer : oldest) = s;
    newest = s;
}

std::shared_ptr<const Answer>
QueryCache::get(const std::string &key)
{
    auto [shard, hash] = homeOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint32_t s = shard.find(key, hash);
    if (s == kNoSlot) {
        ++shard.misses;
        return nullptr;
    }
    ++shard.hits;
    shard.unlink(s);
    shard.pushNewest(s);
    return shard.slots[s].answer;
}

std::shared_ptr<const Answer>
QueryCache::peek(const std::string &key)
{
    auto [shard, hash] = homeOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint32_t s = shard.find(key, hash);
    // No promotion: a peek must not reorder the entry, or internal
    // double-checks would distort the eviction order get() maintains.
    return s == kNoSlot ? nullptr : shard.slots[s].answer;
}

void
QueryCache::put(const std::string &key, std::shared_ptr<const Answer> value)
{
    if (_perShardCapacity == 0)
        return; // storage disabled
    auto [shard, hash] = homeOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint32_t s = shard.find(key, hash);
    if (s != kNoSlot) {
        Slot &slot = shard.slots[s];
        shard.bytes -= bytesOf(slot.answer);
        shard.bytes += bytesOf(value);
        slot.answer = std::move(value);
        shard.unlink(s);
        shard.pushNewest(s);
        return;
    }
    if (shard.slots.size() >= _perShardCapacity) {
        // Full: the victim's slot takes the new entry in place.
        s = shard.oldest;
        shard.unlink(s);
        shard.indexErase(s);
        shard.bytes -= bytesOf(shard.slots[s].answer);
        ++shard.evictions;
    } else {
        s = shard.addSlot(_perShardCapacity);
    }
    Slot &slot = shard.slots[s];
    shard.bytes += bytesOf(value);
    slot.answer = std::move(value);
    slot.hash = hash;
    slot.key.assign(key);
    shard.indexInsert(s);
    shard.pushNewest(s);
}

void
QueryCache::clear()
{
    for (Shard &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.slots = std::vector<Slot>();
        shard.index = std::vector<std::uint32_t>();
        shard.newest = shard.oldest = kNoSlot;
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
        out.entries += shard.slots.size();
        out.bytes += shard.bytes;
    }
    return out;
}

} // namespace svc
} // namespace hcm
