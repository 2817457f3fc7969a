#include "net/framing.hh"

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hcm {
namespace net {
namespace {

TEST(FramingTest, EncodeProducesHeaderPlusPayload)
{
    std::string frame = encodeFrame("abc");
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
    EXPECT_EQ(static_cast<unsigned char>(frame[0]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(frame[1]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(frame[2]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(frame[3]), 3u);
    EXPECT_EQ(frame.substr(kFrameHeaderBytes), "abc");
}

TEST(FramingTest, RoundTripsOneFrame)
{
    FrameDecoder decoder;
    decoder.feed(encodeFrame("{\"type\":\"optimize\"}"));
    std::string payload;
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "{\"type\":\"optimize\"}");
    EXPECT_FALSE(decoder.next(&payload));
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

TEST(FramingTest, SplitReadsReassembleByteByByte)
{
    // The pathological split: every stream byte arrives alone,
    // including the four header bytes.
    std::string frame = encodeFrame("hello split world");
    FrameDecoder decoder;
    std::string payload;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        EXPECT_FALSE(decoder.next(&payload))
            << "frame completed early at byte " << i;
        decoder.feed(frame.data() + i, 1);
    }
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "hello split world");
}

TEST(FramingTest, CoalescedFramesPopInOrder)
{
    std::string stream = encodeFrame("first") + encodeFrame("second") +
                         encodeFrame("third");
    FrameDecoder decoder;
    decoder.feed(stream);
    std::string payload;
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "first");
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "second");
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "third");
    EXPECT_FALSE(decoder.next(&payload));
}

TEST(FramingTest, PartialTrailingFrameWaitsForTheRest)
{
    std::string first = encodeFrame("complete");
    std::string second = encodeFrame("tail");
    FrameDecoder decoder;
    // Everything except the last 2 bytes: one whole frame plus a
    // partial trailing one.
    std::string head = first + second.substr(0, second.size() - 2);
    decoder.feed(head);
    std::string payload;
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "complete");
    EXPECT_FALSE(decoder.next(&payload));
    EXPECT_GT(decoder.bufferedBytes(), 0u);
    decoder.feed(second.substr(second.size() - 2));
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "tail");
}

// One large read can carry thousands of small frames: they must pop
// in order from a single feed(), and what stays buffered is exactly
// the partial frame behind them.
TEST(FramingTest, ManyCoalescedFramesPopInOrderFromOneFeed)
{
    constexpr int kFrames = 16384;
    std::string stream;
    for (int i = 0; i < kFrames; ++i)
        stream += encodeFrame(i % 2 ? std::to_string(i) : "");
    std::string tail = encodeFrame("trailing");
    FrameDecoder decoder;
    decoder.feed(stream + tail.substr(0, 7));
    std::string payload;
    for (int i = 0; i < kFrames; ++i) {
        ASSERT_TRUE(decoder.next(&payload)) << "frame " << i;
        ASSERT_EQ(payload, i % 2 ? std::to_string(i) : "") << "frame " << i;
    }
    EXPECT_FALSE(decoder.next(&payload));
    EXPECT_EQ(decoder.bufferedBytes(), 7u);
    decoder.feed(tail.substr(7));
    EXPECT_EQ(decoder.bufferedBytes(), tail.size());
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "trailing");
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
    EXPECT_FALSE(decoder.failed());
}

TEST(FramingTest, ZeroLengthPayloadIsAValidFrame)
{
    FrameDecoder decoder;
    decoder.feed(encodeFrame(""));
    std::string payload = "sentinel";
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "");
    EXPECT_FALSE(decoder.failed());
}

TEST(FramingTest, OversizedLengthPoisonsWithStructuredError)
{
    FrameDecoder decoder(16); // max 16-byte payloads
    decoder.feed(encodeFrame("this payload is longer than sixteen"));
    std::string payload;
    EXPECT_FALSE(decoder.next(&payload));
    EXPECT_TRUE(decoder.failed());
    EXPECT_NE(decoder.error().find("frame"), std::string::npos);
    // A poisoned decoder ignores further input and buffers nothing.
    decoder.feed(encodeFrame("ok"));
    EXPECT_FALSE(decoder.next(&payload));
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

TEST(FramingTest, MaxSizedPayloadStillPasses)
{
    FrameDecoder decoder(8);
    decoder.feed(encodeFrame("12345678"));
    std::string payload;
    ASSERT_TRUE(decoder.next(&payload));
    EXPECT_EQ(payload, "12345678");
    EXPECT_FALSE(decoder.failed());
}

TEST(FramingTest, RandomizedChunkingNeverChangesPayloads)
{
    // Property: however the stream is sliced into reads, the decoder
    // yields the same payload sequence. Fixed seed for repeatability.
    std::mt19937 rng(20260807u);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::string> payloads;
        std::string stream;
        std::uniform_int_distribution<int> count_dist(1, 8);
        std::uniform_int_distribution<int> size_dist(0, 200);
        std::uniform_int_distribution<int> byte_dist(0, 255);
        int count = count_dist(rng);
        for (int i = 0; i < count; ++i) {
            std::string payload(static_cast<std::size_t>(size_dist(rng)),
                                '\0');
            for (char &c : payload)
                c = static_cast<char>(byte_dist(rng));
            payloads.push_back(payload);
            stream += encodeFrame(payload);
        }
        FrameDecoder decoder;
        std::size_t offset = 0;
        std::vector<std::string> decoded;
        std::string out;
        while (offset < stream.size()) {
            std::uniform_int_distribution<std::size_t> chunk_dist(
                1, stream.size() - offset);
            std::size_t chunk = chunk_dist(rng);
            decoder.feed(stream.data() + offset, chunk);
            offset += chunk;
            while (decoder.next(&out))
                decoded.push_back(out);
        }
        ASSERT_EQ(decoded, payloads) << "round " << round;
        EXPECT_EQ(decoder.bufferedBytes(), 0u);
    }
}

} // namespace
} // namespace net
} // namespace hcm
