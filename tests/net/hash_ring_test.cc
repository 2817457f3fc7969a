#include "net/hash_ring.hh"

#include <map>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace hcm {
namespace net {
namespace {

/** A fixed-seed corpus of canonical-key-shaped strings. */
std::vector<std::string>
keyCorpus(std::size_t count)
{
    std::mt19937 rng(424242u);
    std::uniform_int_distribution<int> type_dist(0, 3);
    std::uniform_real_distribution<double> f_dist(0.0, 1.0);
    std::uniform_int_distribution<int> node_dist(0, 4);
    static const char *kTypes[] = {"optimize", "projection", "energy",
                                   "pareto"};
    static const double kNodes[] = {40, 32, 22, 16, 11};
    std::vector<std::string> keys;
    keys.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        keys.push_back(std::string(kTypes[type_dist(rng)]) + "|mmm|" +
                       std::to_string(f_dist(rng)) + "|baseline|" +
                       std::to_string(kNodes[node_dist(rng)]));
    return keys;
}

TEST(Fnv1a64Test, MatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(HashRingTest, EmptyRingHasNoOwner)
{
    HashRing ring;
    EXPECT_EQ(ring.shardFor("anything"), nullptr);
    EXPECT_EQ(ring.shardIndexFor("anything"), HashRing::npos);
}

TEST(HashRingTest, SingleShardOwnsEverything)
{
    HashRing ring;
    ring.addShard("only");
    for (const std::string &key : keyCorpus(100))
        EXPECT_EQ(*ring.shardFor(key), "only");
}

TEST(HashRingTest, AddShardIsIdempotent)
{
    HashRing ring;
    ring.addShard("a");
    ring.addShard("a");
    EXPECT_EQ(ring.shardCount(), 1u);
}

TEST(HashRingTest, PlacementIsDeterministic)
{
    HashRing a;
    HashRing b;
    for (const char *name : {"s0", "s1", "s2"}) {
        a.addShard(name);
        b.addShard(name);
    }
    for (const std::string &key : keyCorpus(500))
        EXPECT_EQ(*a.shardFor(key), *b.shardFor(key));
}

TEST(HashRingTest, InsertionOrderDoesNotMatter)
{
    HashRing forward;
    HashRing backward;
    forward.addShard("s0");
    forward.addShard("s1");
    forward.addShard("s2");
    backward.addShard("s2");
    backward.addShard("s1");
    backward.addShard("s0");
    for (const std::string &key : keyCorpus(500))
        EXPECT_EQ(*forward.shardFor(key), *backward.shardFor(key));
}

TEST(HashRingTest, DistributionImbalanceIsBounded)
{
    // With the default 97 virtual points per shard, no shard's share
    // of a 20k-key corpus should stray past 2x (or below 0.4x) the
    // fair share — the bound the capacity planning in DESIGN.md
    // assumes. Fixed corpus, so this cannot flake.
    std::vector<std::string> keys = keyCorpus(20000);
    for (std::size_t shards : {2u, 4u, 8u}) {
        HashRing ring;
        for (std::size_t s = 0; s < shards; ++s)
            ring.addShard("shard-" + std::to_string(s));
        std::map<std::string, std::size_t> counts;
        for (const std::string &key : keys)
            ++counts[*ring.shardFor(key)];
        EXPECT_EQ(counts.size(), shards) << shards << " shards";
        double fair = static_cast<double>(keys.size()) /
                      static_cast<double>(shards);
        for (const auto &entry : counts) {
            EXPECT_LT(static_cast<double>(entry.second), 2.0 * fair)
                << entry.first << " of " << shards;
            EXPECT_GT(static_cast<double>(entry.second), 0.4 * fair)
                << entry.first << " of " << shards;
        }
    }
}

TEST(HashRingTest, RemovalRemapsOnlyTheRemovedShardsKeys)
{
    // The 4-shard ring against the same ring without shard-2.
    std::vector<std::string> keys = keyCorpus(5000);
    HashRing ring, without;
    for (std::size_t s = 0; s < 4; ++s) {
        ring.addShard("shard-" + std::to_string(s));
        if (s != 2)
            without.addShard("shard-" + std::to_string(s));
    }
    std::map<std::string, std::string> before;
    for (const std::string &key : keys)
        before[key] = *ring.shardFor(key);

    ASSERT_EQ(without.shardCount(), 3u);
    std::size_t moved = 0;
    for (const std::string &key : keys) {
        const std::string &now = *without.shardFor(key);
        EXPECT_NE(now, "shard-2");
        if (before[key] == "shard-2") {
            ++moved;
        } else {
            // The stability property: survivors keep every key they
            // already owned (and with it their warm cache entries).
            EXPECT_EQ(now, before[key]) << key;
        }
    }
    EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, RemoveThenReaddRestoresPlacement)
{
    // A ring that lost "b" and gets it back places every key as the
    // ring that always had it.
    std::vector<std::string> keys = keyCorpus(1000);
    HashRing ring;
    ring.addShard("a");
    ring.addShard("b");
    ring.addShard("c");
    HashRing readded;
    readded.addShard("a");
    readded.addShard("c");
    readded.addShard("b");
    for (const std::string &key : keys)
        EXPECT_EQ(*readded.shardFor(key), *ring.shardFor(key));
}

TEST(HashRingTest, ShardIndexAgreesWithShardName)
{
    HashRing ring;
    ring.addShard("x");
    ring.addShard("y");
    ring.addShard("z");
    for (const std::string &key : keyCorpus(300)) {
        std::size_t index = ring.shardIndexFor(key);
        ASSERT_LT(index, ring.shards().size());
        EXPECT_EQ(ring.shards()[index], *ring.shardFor(key));
    }
}

} // namespace
} // namespace net
} // namespace hcm
