/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace hcm {
namespace mem {
namespace {

CacheConfig
tiny(std::size_t size = 1024, std::size_t line = 64, std::size_t ways = 2)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.ways = ways;
    return c;
}

TEST(CacheConfigTest, Geometry)
{
    CacheConfig c = tiny(1024, 64, 2);
    EXPECT_EQ(c.lines(), 16u);
    EXPECT_EQ(c.sets(), 8u);
    c.check();
}

TEST(CacheConfigDeathTest, RejectsBadGeometry)
{
    CacheConfig c = tiny(1000, 64, 2);
    EXPECT_DEATH(c.check(), "powers of two");
    c = tiny(1024, 64, 3);
    EXPECT_DEATH(c.check(), "divide");
}

TEST(CacheTest, ColdMissThenHit)
{
    Cache cache(tiny());
    cache.read(0, 4);
    EXPECT_EQ(cache.stats().readMisses, 1u);
    cache.read(60, 4); // same line
    EXPECT_EQ(cache.stats().readMisses, 1u);
    EXPECT_EQ(cache.stats().reads, 2u);
    EXPECT_TRUE(cache.contains(32));
    EXPECT_FALSE(cache.contains(64));
}

TEST(CacheTest, AccessSpanningLinesTouchesBoth)
{
    Cache cache(tiny());
    cache.read(60, 8); // crosses the 64-byte boundary
    EXPECT_EQ(cache.stats().reads, 2u);
    EXPECT_EQ(cache.stats().readMisses, 2u);
}

TEST(CacheTest, LruEvictionOrder)
{
    // 2-way set: lines 0, 512, 1024 map to set 0 (8 sets x 64B).
    Cache cache(tiny(1024, 64, 2));
    cache.read(0, 4);
    cache.read(512, 4);
    cache.read(0, 4);    // refresh line 0
    cache.read(1024, 4); // evicts 512 (LRU), not 0
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(512));
    EXPECT_TRUE(cache.contains(1024));
}

TEST(CacheTest, WritebackOnlyForDirtyVictims)
{
    Cache cache(tiny(1024, 64, 2));
    cache.write(0, 4);   // dirty
    cache.read(512, 4);  // clean
    cache.read(1024, 4); // evicts line 0 (LRU, dirty) -> writeback
    EXPECT_EQ(cache.stats().writebacks, 1u);
    cache.read(1536, 4); // evicts 512 (clean) -> no writeback
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheTest, WriteAllocateBringsLineIn)
{
    Cache cache(tiny());
    cache.write(128, 4);
    EXPECT_EQ(cache.stats().writeMisses, 1u);
    EXPECT_TRUE(cache.contains(128));
    cache.read(132, 4);
    EXPECT_EQ(cache.stats().readMisses, 0u);
}

TEST(CacheTest, TrafficAccounting)
{
    Cache cache(tiny(1024, 64, 2));
    cache.write(0, 4);
    cache.read(512, 4);
    cache.read(1024, 4); // evict dirty line 0
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.fillBytes(64), 3u * 64u);
    EXPECT_EQ(s.writebackBytes(64), 64u);
    EXPECT_EQ(s.trafficBytes(64), 4u * 64u);
    EXPECT_NEAR(s.missRate(), 1.0, 1e-12);
}

TEST(CacheTest, StreamingFitsMissRate)
{
    // Sequential reads at 4B over 16 lines: 1 miss per 16 accesses.
    Cache cache(tiny(4096, 64, 4));
    for (Addr a = 0; a < 4096; a += 4)
        cache.read(a, 4);
    EXPECT_NEAR(cache.stats().missRate(), 1.0 / 16.0, 1e-12);
}

/** Property sweep: a looped working set that fits sees only cold
 *  misses; one that exceeds capacity thrashes under LRU. */
class WorkingSetFit : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(WorkingSetFit, ColdMissesOnlyWhenResident)
{
    std::size_t ws_lines = GetParam();
    Cache cache(tiny(4096, 64, 4)); // 64 lines total, fully usable
    for (int pass = 0; pass < 4; ++pass)
        for (std::size_t i = 0; i < ws_lines; ++i)
            cache.read(static_cast<Addr>(i) * 64, 4);
    if (ws_lines <= 64) {
        EXPECT_EQ(cache.stats().misses(), ws_lines) << "fits";
    } else if (ws_lines >= 128) {
        // Every set oversubscribed: cyclic access under LRU misses
        // on every reference.
        EXPECT_EQ(cache.stats().misses(), 4 * ws_lines) << "thrashes";
    } else {
        // Partially oversubscribed: more than cold, less than total.
        EXPECT_GT(cache.stats().misses(), ws_lines);
        EXPECT_LT(cache.stats().misses(), 4 * ws_lines);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorkingSetFit,
                         ::testing::Values(8, 32, 64, 65, 128));

} // namespace
} // namespace mem
} // namespace hcm
