/** @file Tests for the deterministic fault injector: spec parsing,
 *  nth/every triggers, delays, and call counting. */

#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "svc/fault.hh"

namespace hcm {
namespace svc {
namespace {

/** Disarms the process-wide injector around every test. */
class FaultInjectorTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(FaultInjectorTest, DisabledByDefaultAndAfterReset)
{
    FaultInjector &fi = FaultInjector::instance();
    EXPECT_FALSE(fi.enabled());
    fi.maybeInject("eval"); // must be a harmless no-op
    EXPECT_EQ(fi.callCount("eval"), 0u);

    ASSERT_TRUE(fi.configure("eval:delay=0"));
    EXPECT_TRUE(fi.enabled());
    fi.reset();
    EXPECT_FALSE(fi.enabled());
    EXPECT_TRUE(fi.rules().empty());
}

TEST_F(FaultInjectorTest, ConfigureParsesRules)
{
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure(
        "eval:throw=boom:nth=2, dequeue:delay=5:every=3"));
    ASSERT_EQ(fi.rules().size(), 2u);

    const FaultRule &first = fi.rules()[0];
    EXPECT_EQ(first.site, "eval");
    EXPECT_EQ(first.action, FaultRule::Action::Throw);
    EXPECT_EQ(first.message, "boom");
    EXPECT_EQ(first.nth, 2u);
    EXPECT_EQ(first.every, 0u);

    const FaultRule &second = fi.rules()[1];
    EXPECT_EQ(second.site, "dequeue");
    EXPECT_EQ(second.action, FaultRule::Action::Delay);
    EXPECT_EQ(second.delayMs, 5u);
    EXPECT_EQ(second.every, 3u);
}

TEST_F(FaultInjectorTest, EmptySpecDisables)
{
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure("eval:throw"));
    EXPECT_TRUE(fi.enabled());
    ASSERT_TRUE(fi.configure(""));
    EXPECT_FALSE(fi.enabled());
    EXPECT_TRUE(fi.rules().empty());
}

TEST_F(FaultInjectorTest, MalformedSpecsAreRejected)
{
    FaultInjector &fi = FaultInjector::instance();
    for (const char *bad : {
             "eval",                 // no action
             "launch:throw",         // unknown site
             "eval:explode",         // unknown action
             "eval:delay",           // delay needs a duration
             "eval:delay=abc",       // non-numeric duration
             "eval:throw:nth=0",     // nth is 1-based
             "eval:throw:every=0",   // every must be >= 1
             "eval:throw:color=red", // unknown modifier
             "eval:throw:nth=-1",    // used to wrap to 2^64 - 1
             "eval:delay=+5",        // decimal digits only
             ":throw",               // empty site
         }) {
        std::string error;
        EXPECT_FALSE(fi.configure(bad, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
        // A bad spec must leave the injector disarmed, not half-armed.
        EXPECT_FALSE(fi.enabled()) << bad;
    }
}

TEST_F(FaultInjectorTest, ThrowFiresOnEveryCallByDefault)
{
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure("eval:throw=kaput"));
    for (int i = 0; i < 3; ++i) {
        try {
            fi.maybeInject("eval");
            FAIL() << "expected FaultInjected";
        } catch (const FaultInjected &e) {
            EXPECT_STREQ(e.what(), "kaput");
        }
    }
    EXPECT_EQ(fi.callCount("eval"), 3u);
    // Other sites are unaffected.
    fi.maybeInject("dequeue");
    EXPECT_EQ(fi.callCount("dequeue"), 1u);
}

TEST_F(FaultInjectorTest, NthFiresExactlyOnce)
{
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure("eval:throw:nth=2"));
    EXPECT_NO_THROW(fi.maybeInject("eval"));
    EXPECT_THROW(fi.maybeInject("eval"), FaultInjected);
    EXPECT_NO_THROW(fi.maybeInject("eval"));
    EXPECT_NO_THROW(fi.maybeInject("eval"));
    EXPECT_EQ(fi.callCount("eval"), 4u);
}

TEST_F(FaultInjectorTest, EveryFiresPeriodically)
{
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure("eval:throw:every=3"));
    int thrown = 0;
    for (int i = 0; i < 9; ++i) {
        try {
            fi.maybeInject("eval");
        } catch (const FaultInjected &) {
            ++thrown;
            EXPECT_EQ((i + 1) % 3, 0) << "call " << (i + 1);
        }
    }
    EXPECT_EQ(thrown, 3);
}

TEST_F(FaultInjectorTest, ConfigureZeroesCallCounters)
{
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure("eval:delay=0"));
    fi.maybeInject("eval");
    fi.maybeInject("eval");
    EXPECT_EQ(fi.callCount("eval"), 2u);
    ASSERT_TRUE(fi.configure("eval:delay=0"));
    EXPECT_EQ(fi.callCount("eval"), 0u);
}

TEST_F(FaultInjectorTest, DelayActuallySleeps)
{
    using clock = std::chrono::steady_clock;
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure("eval:delay=20"));
    auto start = clock::now();
    fi.maybeInject("eval");
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        clock::now() - start);
    EXPECT_GE(elapsed.count(), 15); // allow scheduler slop downward
}

TEST_F(FaultInjectorTest, DelayAndThrowCompose)
{
    FaultInjector &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configure("eval:delay=1,eval:throw=after-delay"));
    try {
        fi.maybeInject("eval");
        FAIL() << "expected FaultInjected";
    } catch (const FaultInjected &e) {
        EXPECT_STREQ(e.what(), "after-delay");
    }
}

} // namespace
} // namespace svc
} // namespace hcm
