#include "cache.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/math.hh"

namespace hcm {
namespace mem {

void
CacheConfig::check() const
{
    hcm_assert(isPow2(sizeBytes) && isPow2(lineBytes),
               "cache size and line must be powers of two");
    hcm_assert(lineBytes >= 4 && lineBytes <= sizeBytes,
               "bad line size");
    hcm_assert(ways >= 1 && lines() % ways == 0,
               "ways must divide the line count");
    hcm_assert(isPow2(sets()), "set count must be a power of two");
}

Cache::Cache(CacheConfig config) : _config(config)
{
    _config.check();
    _sets.assign(_config.sets(), std::vector<Way>(_config.ways));
}

bool
Cache::contains(Addr addr) const
{
    Addr line = addr / _config.lineBytes;
    const auto &set = _sets[line & (_config.sets() - 1)];
    Addr tag = line / _config.sets();
    for (const Way &w : set)
        if (w.valid && w.tag == tag)
            return true;
    return false;
}

void
Cache::access(Addr addr, std::size_t bytes, bool write)
{
    hcm_assert(bytes > 0, "zero-byte access");
    Addr first = addr / _config.lineBytes;
    Addr last = (addr + bytes - 1) / _config.lineBytes;
    for (Addr line = first; line <= last; ++line)
        touchLine(line, write);
}

void
Cache::touchLine(Addr line_addr, bool write)
{
    ++_clock;
    if (write)
        ++_stats.writes;
    else
        ++_stats.reads;

    auto &set = _sets[line_addr & (_config.sets() - 1)];
    Addr tag = line_addr / _config.sets();

    // Hit path.
    for (Way &w : set) {
        if (w.valid && w.tag == tag) {
            w.lastUse = _clock;
            w.dirty = w.dirty || write;
            return;
        }
    }

    // Miss: allocate (write-allocate policy), evicting true-LRU.
    if (write)
        ++_stats.writeMisses;
    else
        ++_stats.readMisses;

    Way *victim = &set[0];
    for (Way &w : set) {
        if (!w.valid) {
            victim = &w;
            break;
        }
        if (w.lastUse < victim->lastUse)
            victim = &w;
    }
    if (victim->valid && victim->dirty)
        ++_stats.writebacks;
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lastUse = _clock;
}

} // namespace mem
} // namespace hcm
