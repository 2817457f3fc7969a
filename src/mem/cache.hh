/**
 * @file
 * A set-associative, write-back, write-allocate cache model with true
 * LRU replacement. The paper's bandwidth bounds assume an application
 * consumes only compulsory traffic while its working set fits in
 * on-chip memory (Section 3.2); this model, driven by kernel access
 * traces, is how the repo validates that assumption instead of taking
 * it on faith.
 */

#ifndef HCM_MEM_CACHE_HH
#define HCM_MEM_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace hcm {
namespace mem {

/** Byte address in the simulated address space. */
using Addr = std::uint64_t;

/** Cache geometry. */
struct CacheConfig
{
    std::size_t sizeBytes = 64 * 1024;
    std::size_t lineBytes = 64;
    std::size_t ways = 8;

    std::size_t lines() const { return sizeBytes / lineBytes; }
    std::size_t sets() const { return lines() / ways; }

    /** Validate the geometry (powers of two, ways divide lines). */
    void check() const;
};

/** Aggregate statistics of one simulation. */
struct CacheStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t accesses() const { return reads + writes; }
    std::uint64_t misses() const { return readMisses + writeMisses; }

    double
    missRate() const
    {
        return accesses() ? static_cast<double>(misses()) / accesses()
                          : 0.0;
    }

    /** Bytes fetched from memory (fills). */
    std::uint64_t fillBytes(std::size_t line_bytes) const
    { return misses() * line_bytes; }

    /** Bytes written back to memory (dirty evictions). */
    std::uint64_t writebackBytes(std::size_t line_bytes) const
    { return writebacks * line_bytes; }

    /** Total off-chip traffic in bytes. */
    std::uint64_t
    trafficBytes(std::size_t line_bytes) const
    {
        return fillBytes(line_bytes) + writebackBytes(line_bytes);
    }
};

/** The cache itself. */
class Cache
{
  public:
    explicit Cache(CacheConfig config);

    const CacheConfig &config() const { return _config; }
    const CacheStats &stats() const { return _stats; }

    /** Access @p bytes starting at @p addr (split across lines). */
    void access(Addr addr, std::size_t bytes, bool write);

    /** Read convenience. */
    void read(Addr addr, std::size_t bytes)
    { access(addr, bytes, false); }

    /** Write convenience. */
    void write(Addr addr, std::size_t bytes)
    { access(addr, bytes, true); }

    /** True when the line containing @p addr is resident. */
    bool contains(Addr addr) const;

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0; ///< LRU timestamp
    };

    void touchLine(Addr line_addr, bool write);

    CacheConfig _config;
    CacheStats _stats;
    std::vector<std::vector<Way>> _sets;
    std::uint64_t _clock = 0;
};

} // namespace mem
} // namespace hcm

#endif // HCM_MEM_CACHE_HH
