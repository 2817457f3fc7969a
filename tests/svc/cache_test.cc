/** @file Tests for the sharded LRU memoization cache. */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <gtest/gtest.h>

#include "core/scenario.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "svc/cache.hh"

// mallinfo2() reads glibc's own allocator, which ASan and TSan
// replace.
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
#define HCM_HAVE_MALLINFO2 1
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HCM_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HCM_MALLOC_REPLACED 1
#endif
#endif

namespace hcm {
namespace svc {
namespace {

/** A packed answer told apart by @p label (an error answer's message). */
std::shared_ptr<const Answer>
answerOf(const std::string &label)
{
    return renderAnswer(
        makeQueryError(Query{}, QueryErrorKind::EvaluationFailed, label));
}

/**
 * @p count queries drawn like serve-cold's: type, workload, scenario
 * and node uniform, f uniform in [0.5, 0.9999].
 */
[[maybe_unused]] std::vector<Query>
seededQueries(std::size_t count, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    auto pick = [&](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    std::vector<wl::Workload> workloads = dev::table5Workloads();
    const std::vector<core::Scenario> &scenarios = core::allScenarios();
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    std::uniform_real_distribution<double> f(0.5, 0.9999);
    std::vector<Query> queries(count);
    for (Query &q : queries) {
        q.type = allQueryTypes()[pick(allQueryTypes().size())];
        q.workload = workloads[pick(workloads.size())];
        q.scenario = scenarios[pick(scenarios.size())].name;
        q.node = nodes[pick(nodes.size())].nodeNm;
        q.f = f(rng);
    }
    return queries;
}

std::string
textOf(const Answer &answer)
{
    std::string text;
    answer.appendTo(text);
    return text;
}

/** The bytes answerOf(@p label) expands to. */
std::string
textOf(const std::string &label)
{
    return textOf(*answerOf(label));
}

TEST(QueryCacheTest, MissThenHit)
{
    QueryCache cache(8, 2);
    EXPECT_EQ(cache.get("k"), nullptr);
    cache.put("k", answerOf("ASIC"));
    auto hit = cache.get("k");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(textOf(*hit), textOf("ASIC"));

    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(QueryCacheTest, PeekDoesNotCount)
{
    QueryCache cache(8, 1);
    EXPECT_EQ(cache.peek("k"), nullptr);
    cache.put("k", answerOf("ASIC"));
    EXPECT_NE(cache.peek("k"), nullptr);
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
}

// Regression: peek() used to splice its entry to the MRU position,
// silently distorting eviction order on the engine's double-check
// path. A peeked-at entry must remain the eviction victim.
TEST(QueryCacheTest, PeekDoesNotPromote)
{
    QueryCache cache(2, 1); // one shard so LRU order is global
    cache.put("a", answerOf("A"));
    cache.put("b", answerOf("B")); // order: b (MRU), a (LRU)
    EXPECT_NE(cache.peek("a"), nullptr);
    cache.put("c", answerOf("C")); // must evict "a", not "b"
    EXPECT_EQ(cache.get("a"), nullptr);
    EXPECT_NE(cache.get("b"), nullptr);
    EXPECT_NE(cache.get("c"), nullptr);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsed)
{
    QueryCache cache(2, 1); // one shard so LRU order is global
    cache.put("a", answerOf("A"));
    cache.put("b", answerOf("B"));
    EXPECT_NE(cache.get("a"), nullptr); // refresh "a"
    cache.put("c", answerOf("C"));   // evicts "b"

    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_EQ(cache.get("b"), nullptr);
    EXPECT_NE(cache.get("c"), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(QueryCacheTest, PutRefreshesExistingKey)
{
    QueryCache cache(2, 1);
    cache.put("k", answerOf("old"));
    cache.put("k", answerOf("new"));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(textOf(*cache.get("k")), textOf("new"));
}

TEST(QueryCacheTest, ZeroCapacityDisablesStorage)
{
    QueryCache cache(0);
    cache.put("k", answerOf("X"));
    EXPECT_EQ(cache.get("k"), nullptr);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryCacheTest, ShardCountClampedToCapacity)
{
    QueryCache tiny(2, 64);
    EXPECT_EQ(tiny.shardCount(), 2u);
    QueryCache normal(64, 8);
    EXPECT_EQ(normal.shardCount(), 8u);
}

TEST(QueryCacheTest, CapacityHoldsAcrossShards)
{
    // Insert far more than capacity; total entries must never exceed
    // the ceiling-divided per-shard budget times the shard count.
    QueryCache cache(16, 4);
    for (int i = 0; i < 200; ++i)
        cache.put("key" + std::to_string(i), answerOf("X"));
    CacheStats stats = cache.stats();
    EXPECT_LE(stats.entries, stats.capacity);
    EXPECT_LE(stats.entries, 16u);
    EXPECT_GE(stats.evictions, 200u - 16u);
}

// 10 entries over 4 shards rounds up to 3 per shard, so the cache can
// really admit 12; stats() must report that effective total, not the
// requested one, or "entries <= capacity" breaks for observers.
TEST(QueryCacheTest, StatsReportEffectiveRoundedUpCapacity)
{
    QueryCache cache(10, 4);
    EXPECT_EQ(cache.requestedCapacity(), 10u);
    EXPECT_EQ(cache.capacity(), 12u);
    for (int i = 0; i < 200; ++i)
        cache.put("key" + std::to_string(i), answerOf("X"));
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.capacity, 12u);
    EXPECT_LE(stats.entries, stats.capacity);
}

TEST(QueryCacheTest, ClearKeepsCounters)
{
    QueryCache cache(8, 2);
    cache.put("k", answerOf("X"));
    EXPECT_NE(cache.get("k"), nullptr);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.get("k"), nullptr);
}

/**
 * Reference model of QueryCache: one plain recency list per shard,
 * front = most recently used, searched linearly. Keys go to shards by
 * the same key hash the cache uses.
 */
class LruModel
{
  public:
    using Value = std::shared_ptr<const Answer>;

    explicit LruModel(const QueryCache &cache)
        : _shards(cache.shardCount()),
          _perShard(cache.capacity() / cache.shardCount())
    {
    }

    Value
    get(const std::string &key)
    {
        Lru &lru = shardOf(key);
        auto it = find(lru, key);
        if (it == lru.end()) {
            ++misses;
            return nullptr;
        }
        ++hits;
        lru.splice(lru.begin(), lru, it);
        return it->second;
    }

    Value
    peek(const std::string &key)
    {
        Lru &lru = shardOf(key);
        auto it = find(lru, key);
        return it == lru.end() ? nullptr : it->second;
    }

    /** Insert or refresh @p key; the evicted key, if any. */
    std::optional<std::string>
    put(const std::string &key, Value value)
    {
        Lru &lru = shardOf(key);
        auto it = find(lru, key);
        if (it != lru.end()) {
            it->second = std::move(value);
            lru.splice(lru.begin(), lru, it);
            return std::nullopt;
        }
        std::optional<std::string> victim;
        if (lru.size() >= _perShard) {
            victim = lru.back().first;
            lru.pop_back();
            ++evictions;
        }
        lru.emplace_front(key, std::move(value));
        return victim;
    }

    void
    clear()
    {
        for (Lru &lru : _shards)
            lru.clear();
    }

    /** Packed bytes of the resident values. */
    std::size_t
    residentBytes() const
    {
        std::size_t bytes = 0;
        for (const Lru &lru : _shards)
            for (const auto &entry : lru)
                bytes += entry.second->packedBytes();
        return bytes;
    }

    std::vector<std::string>
    residentKeys() const
    {
        std::vector<std::string> keys;
        for (const Lru &lru : _shards)
            for (const auto &entry : lru)
                keys.push_back(entry.first);
        return keys;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    using Lru = std::list<std::pair<std::string, Value>>;

    static Lru::iterator
    find(Lru &lru, const std::string &key)
    {
        return std::find_if(lru.begin(), lru.end(), [&](const auto &e) {
            return e.first == key;
        });
    }

    Lru &
    shardOf(const std::string &key)
    {
        return _shards[std::hash<std::string>{}(key) % _shards.size()];
    }

    std::vector<Lru> _shards;
    std::size_t _perShard;
};

/**
 * A seeded run of 20,000 gets, peeks, puts, refreshing puts and
 * clears over 3x capacity keys: every lookup, every eviction victim,
 * every counter and the bytes held must match the model, op for op.
 */
void
checkAgainstModel(std::size_t shards)
{
    constexpr std::size_t kCapacity = 24;
    QueryCache cache(kCapacity, shards);
    LruModel model(cache);
    // The keys straddle the slot's inline key storage: 11-byte record
    // keys, keys holding NULs, keys that differ only in their last
    // byte, and long keys as canonicalKey() writes them for a scenario
    // outside the registry (its name appended) or a node outside the
    // table (8 bytes appended), beside long text keys.
    std::vector<std::string> keys;
    for (std::size_t i = 0; keys.size() < 3 * kCapacity; ++i) {
        Query q;
        q.type = allQueryTypes()[i % allQueryTypes().size()];
        q.f = 0.5 + 0.001 * static_cast<double>(i);
        std::string record = q.canonicalKey();
        keys.push_back(record);
        std::string sibling = record;
        sibling.back() = static_cast<char>(sibling.back() ^ 1);
        keys.push_back(sibling);
        keys.push_back(std::string("\0k\0", 3) + std::to_string(i) +
                       std::string(i % 12, '\0'));
        q.scenario = "outside-the-registry-" + std::to_string(i);
        keys.push_back(q.canonicalKey());
        q.scenario = "baseline";
        q.type = QueryType::Optimize;
        q.node = 23.5 + static_cast<double>(i);
        keys.push_back(q.canonicalKey());
        keys.push_back("optimize|mmm|f=0." + std::to_string(i) +
                       "|s=baseline|n=22|d=*");
    }
    keys.resize(3 * kCapacity);
    ASSERT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              keys.size());
    std::mt19937 rng(1234 + static_cast<unsigned>(shards));
    for (int op = 0; op < 20000; ++op) {
        std::string key = keys[rng() % keys.size()];
        unsigned roll = rng() % 1000;
        if (roll < 450) {
            auto want = model.get(key);
            ASSERT_EQ(cache.get(key), want) << "get, op " << op;
        } else if (roll < 600) {
            ASSERT_EQ(cache.peek(key), model.peek(key)) << "peek, op " << op;
        } else if (roll < 998) {
            std::vector<std::string> resident = model.residentKeys();
            if (roll >= 900 && !resident.empty())
                key = resident[rng() % resident.size()]; // refresh
            auto value = answerOf(key + "#" + std::to_string(op));
            std::optional<std::string> victim = model.put(key, value);
            cache.put(key, value);
            if (victim) {
                ASSERT_EQ(cache.peek(*victim), nullptr)
                    << "victim " << *victim << ", op " << op;
            }
            ASSERT_EQ(cache.peek(key), value) << "put, op " << op;
        } else {
            model.clear();
            cache.clear();
        }
        CacheStats stats = cache.stats();
        ASSERT_EQ(stats.hits, model.hits) << "op " << op;
        ASSERT_EQ(stats.misses, model.misses) << "op " << op;
        ASSERT_EQ(stats.evictions, model.evictions) << "op " << op;
        ASSERT_EQ(stats.entries, model.residentKeys().size()) << "op " << op;
        ASSERT_EQ(stats.bytes, model.residentBytes()) << "op " << op;
        if (op % 256 != 0)
            continue;
        for (const std::string &k : keys)
            ASSERT_EQ(cache.peek(k), model.peek(k)) << k << ", op " << op;
    }
    // The run must have exercised eviction and both lookup outcomes.
    EXPECT_GT(model.evictions, 1000u);
    EXPECT_GT(model.hits, 1000u);
    EXPECT_GT(model.misses, 1000u);
}

TEST(QueryCacheTest, MatchesLruModelWithOneShard)
{
    checkAgainstModel(1);
}

TEST(QueryCacheTest, MatchesLruModelWithThreeShards)
{
    checkAgainstModel(3);
}

TEST(QueryCacheTest, MatchesLruModelWithEightShards)
{
    checkAgainstModel(8);
}

TEST(QueryCacheTest, BytesFollowPutRefreshEvictAndClear)
{
    QueryCache cache(2, 1);
    auto a = answerOf("ASIC");
    auto b = answerOf("a longer message, so a packed answer of more bytes");
    auto c = answerOf("63.8444659084");
    EXPECT_EQ(cache.stats().bytes, 0u);
    cache.put("a", a);
    EXPECT_EQ(cache.stats().bytes, a->packedBytes());
    cache.put("b", b);
    EXPECT_EQ(cache.stats().bytes, a->packedBytes() + b->packedBytes());
    cache.put("a", c); // refresh: a's bytes out, c's in
    EXPECT_EQ(cache.stats().bytes, c->packedBytes() + b->packedBytes());
    cache.put("d", a); // evicts b
    EXPECT_EQ(cache.stats().bytes, c->packedBytes() + a->packedBytes());
    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
    // An answer that was never rendered holds no bytes.
    cache.put("e", std::make_shared<const QueryResult>());
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(QueryCacheTest, HeldAnswerOutlivesItsEntry)
{
    // One key inside the slot's inline storage, one spilled past it.
    for (const std::string key : {"held", "a key past any inline buffer"}) {
        QueryCache cache(4, 1);
        cache.put(key, answerOf("held answer"));
        std::shared_ptr<const Answer> held = cache.get(key);
        ASSERT_NE(held, nullptr);
        const std::string want = textOf("held answer");

        for (int i = 0; i < 4; ++i) // evicts key: its slot is reused
            cache.put("fill" + std::to_string(i),
                      answerOf("filler " + std::to_string(i)));
        EXPECT_EQ(cache.peek(key), nullptr) << key;
        EXPECT_EQ(textOf(*held), want) << key;

        cache.put(key, answerOf("a different answer, of another size"));
        cache.put(key, answerOf("x")); // refresh in place
        EXPECT_EQ(textOf(*cache.peek(key)), textOf("x")) << key;
        EXPECT_EQ(textOf(*held), want) << key;

        cache.clear();
        EXPECT_EQ(textOf(*held), want) << key;
        EXPECT_EQ(held.use_count(), 1) << key;
    }
}

TEST(QueryCacheTest, ConcurrentMixedTrafficStaysConsistent)
{
    // 100 keys over 64 entries: writers evict while readers expand
    // every hit and compare it with its key's bytes.
    QueryCache cache(64, 8);
    std::map<std::string, std::string> want;
    for (int k = 0; k < 100; ++k) {
        std::string key = "key" + std::to_string(k);
        want[key] = textOf(key);
    }
    std::atomic<int> checked{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&cache, &want, &checked, t] {
            for (int i = 0; i < 500; ++i) {
                std::string key =
                    "key" + std::to_string((t * 31 + i) % 100);
                if (i % 3 == 0) {
                    cache.put(key, answerOf(key));
                } else if (auto hit = cache.get(key)) {
                    EXPECT_EQ(textOf(*hit), want.at(key));
                    ++checked;
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    CacheStats stats = cache.stats();
    EXPECT_LE(stats.entries, 64u);
    EXPECT_EQ(stats.lookups(), stats.hits + stats.misses);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(checked.load(), static_cast<int>(stats.hits));
}

// What a full cache holds beyond its answers' packed bytes: the slots,
// the index, and each answer block's control block, header and malloc
// chunk overhead, about 97 B. The layout before it, one unordered_map
// node per entry with a make_shared Answer and a separate exact-size
// byte block, read 170 B here (gcc 12.2, glibc 2.36).
TEST(QueryCacheTest, BookkeepingPerEntryIsBounded)
{
#if !defined(HCM_HAVE_MALLINFO2)
    GTEST_SKIP() << "needs glibc's mallinfo2()";
#elif defined(HCM_MALLOC_REPLACED)
    GTEST_SKIP() << "a sanitizer's allocator replaces glibc malloc";
#else
    std::vector<Query> queries = seededQueries(8000, 1);
    // glibc's per-thread cache keeps a few freed chunks of each small
    // size, which mallinfo2() counts as in use. Filling every one of
    // its size classes before each reading makes it hold the same
    // bytes at both readings.
    auto in_use = [] {
        std::vector<void *> chunks;
        for (std::size_t size = 24; size <= 1032; size += 16)
            for (int i = 0; i < 16; ++i)
                chunks.push_back(std::malloc(size));
        for (void *chunk : chunks)
            std::free(chunk);
        struct mallinfo2 info = mallinfo2();
        return static_cast<double>(info.uordblks + info.hblkhd);
    };
    // Warm the per-thread pack buffer and the model's first-use state.
    for (std::size_t i = 0; i < 200; ++i)
        renderAnswer(evaluateQuery(queries[i]));
    QueryCache cache(4096);
    double before = in_use();
    for (const Query &q : queries)
        cache.put(q.canonicalKey(), renderAnswer(evaluateQuery(q)));
    double after = in_use();
    CacheStats stats = cache.stats();
    ASSERT_EQ(stats.entries, 4096u);
    ASSERT_GT(stats.evictions, 0u);
    double per_entry =
        (after - before - static_cast<double>(stats.bytes)) /
        static_cast<double>(stats.entries);
    EXPECT_LE(per_entry, 110.0)
        << "in use " << before << " -> " << after << " B, packed "
        << stats.bytes << " B";
    RecordProperty("bookkeepingBytesPerEntry",
                   std::to_string(per_entry));
#endif
}

} // namespace
} // namespace svc
} // namespace hcm
