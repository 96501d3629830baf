/**
 * @file
 * Unit tests for the NAND geometry, flash array model and its timing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "nand/geometry.h"
#include "nand/nand.h"
#include "ok_done.h"
#include "sim/kernel.h"
#include "util/common.h"

namespace bisc::nand {
namespace {

Geometry
smallGeo()
{
    Geometry g;
    g.channels = 4;
    g.ways_per_channel = 2;
    g.pages_per_block = 8;
    g.page_size = 4_KiB;
    g.blocks_per_die = 16;
    return g;
}

TEST(Geometry, Counts)
{
    Geometry g = smallGeo();
    EXPECT_EQ(g.dies(), 8u);
    EXPECT_EQ(g.totalBlocks(), 128u);
    EXPECT_EQ(g.totalPages(), 1024u);
    EXPECT_EQ(g.capacity(), 4_MiB);
}

TEST(Geometry, StripingVisitsAllChannels)
{
    Geometry g = smallGeo();
    std::vector<int> seen(g.channels, 0);
    for (Ppn p = 0; p < g.channels; ++p)
        seen[g.channelOf(p)]++;
    for (auto c : seen)
        EXPECT_EQ(c, 1);  // consecutive pages hit distinct channels
}

TEST(Geometry, BlockPageInverse)
{
    Geometry g = smallGeo();
    for (Pbn b = 0; b < g.totalBlocks(); b += 7) {
        for (std::uint32_t i = 0; i < g.pages_per_block; ++i) {
            Ppn p = g.pageOfBlock(b, i);
            EXPECT_EQ(g.blockOf(p), b);
            EXPECT_EQ(g.pageIndexInBlock(p), i);
        }
    }
}

TEST(Geometry, BlockPagesShareDie)
{
    Geometry g = smallGeo();
    Pbn b = 13;
    auto slot = g.slotOf(g.pageOfBlock(b, 0));
    for (std::uint32_t i = 1; i < g.pages_per_block; ++i)
        EXPECT_EQ(g.slotOf(g.pageOfBlock(b, i)), slot);
}

class NandTest : public ::testing::Test
{
  protected:
    NandTest() : nand_(kernel_, smallGeo(), NandTiming{}) {}

    sim::Kernel kernel_;
    NandFlash nand_;
};

TEST_F(NandTest, ProgramThenReadRoundTrip)
{
    std::vector<std::uint8_t> data(4_KiB);
    std::iota(data.begin(), data.end(), 0);
    okDone(nand_.programPage(42, data.data(), data.size()));

    std::vector<std::uint8_t> out(4_KiB);
    okDone(nand_.readPage(42, 0, out.size(), out.data()));
    EXPECT_EQ(out, data);
}

TEST_F(NandTest, PartialReadWithOffset)
{
    std::vector<std::uint8_t> data(4_KiB);
    std::iota(data.begin(), data.end(), 0);
    okDone(nand_.programPage(7, data.data(), data.size()));

    std::vector<std::uint8_t> out(16);
    okDone(nand_.readPage(7, 100, out.size(), out.data()));
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], data[100 + i]);
}

TEST_F(NandTest, UnwrittenPageReadsZero)
{
    std::vector<std::uint8_t> out(64, 0xff);
    okDone(nand_.readPage(3, 0, out.size(), out.data()));
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST_F(NandTest, ProgramOnceEnforced)
{
    std::vector<std::uint8_t> data(16, 1);
    okDone(nand_.programPage(5, data.data(), data.size()));
    EXPECT_DEATH(nand_.programPage(5, data.data(), data.size()),
                 "program-once");
}

TEST_F(NandTest, EraseClearsBlockAndCounts)
{
    Geometry g = smallGeo();
    std::vector<std::uint8_t> data(16, 9);
    Pbn pbn = 3;
    for (std::uint32_t i = 0; i < g.pages_per_block; ++i)
        okDone(nand_.programPage(g.pageOfBlock(pbn, i), data.data(),
                                 data.size()));
    EXPECT_TRUE(nand_.isProgrammed(g.pageOfBlock(pbn, 0)));
    okDone(nand_.eraseBlock(pbn));
    for (std::uint32_t i = 0; i < g.pages_per_block; ++i)
        EXPECT_FALSE(nand_.isProgrammed(g.pageOfBlock(pbn, i)));
    EXPECT_EQ(nand_.eraseCount(pbn), 1u);
    // Erase allows reprogramming.
    okDone(nand_.programPage(g.pageOfBlock(pbn, 0), data.data(),
                             data.size()));
}

TEST_F(NandTest, ReadLatencyIsMediaPlusTransfer)
{
    NandTiming t;  // defaults: 60us tR, 600 MB/s, 2us cmd
    Tick done = okDone(nand_.readPage(0, 0, 4_KiB, nullptr));
    Tick expect = t.read_page + t.channel_cmd +
                  transferTicks(4_KiB, t.channel_bw);
    EXPECT_EQ(done, expect);
}

TEST_F(NandTest, SameDieReadsSerialize)
{
    Geometry g = smallGeo();
    // Two pages on the same die (same slot, consecutive rows).
    Ppn a = 0;
    Ppn b = a + g.dies();
    Tick d1 = okDone(nand_.readPage(a, 0, 512, nullptr));
    Tick d2 = okDone(nand_.readPage(b, 0, 512, nullptr));
    EXPECT_GT(d2, d1);
    NandTiming t;
    EXPECT_GE(d2, 2 * t.read_page);
}

TEST_F(NandTest, DifferentChannelsOverlap)
{
    // Pages 0 and 1 sit on different channels: media + bus overlap.
    Tick d1 = okDone(nand_.readPage(0, 0, 4_KiB, nullptr));
    Tick d2 = okDone(nand_.readPage(1, 0, 4_KiB, nullptr));
    EXPECT_EQ(d1, d2);
}

TEST_F(NandTest, SameChannelBusSerializes)
{
    Geometry g = smallGeo();
    // Same channel, different ways: media overlaps, bus serializes.
    Ppn a = 0;
    Ppn b = g.channels;  // way 1, channel 0
    NandTiming t;
    Tick d1 = okDone(nand_.readPage(a, 0, 4_KiB, nullptr));
    Tick d2 = okDone(nand_.readPage(b, 0, 4_KiB, nullptr));
    Tick xfer = t.channel_cmd + transferTicks(4_KiB, t.channel_bw);
    EXPECT_EQ(d2, d1 + xfer);
}

TEST_F(NandTest, EarliestParameterDelaysStart)
{
    NandTiming t;
    Tick done =
        okDone(nand_.readPage(0, 0, 512, nullptr, 1000 * kUsec));
    EXPECT_GE(done, 1000 * kUsec + t.read_page);
}

TEST_F(NandTest, StatsAccumulate)
{
    std::vector<std::uint8_t> data(128, 3);
    okDone(nand_.programPage(0, data.data(), data.size()));
    okDone(nand_.readPage(0, 0, 128, nullptr));
    okDone(nand_.readPage(0, 0, 128, nullptr));
    okDone(nand_.eraseBlock(0));
    EXPECT_EQ(nand_.pageWrites(), 1u);
    EXPECT_EQ(nand_.pageReads(), 2u);
    EXPECT_EQ(nand_.blockErases(), 1u);
    EXPECT_EQ(nand_.bytesRead(), 256u);
}

TEST_F(NandTest, InstallBypassesTiming)
{
    std::vector<std::uint8_t> data(64, 7);
    nand_.installPage(11, data.data(), data.size());
    const auto *page = nand_.peekPage(11);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ((*page)[0], 7);
    // No server time consumed.
    EXPECT_EQ(nand_.channelBusyTicks(smallGeo().channelOf(11)), 0u);
}

TEST_F(NandTest, AggregateBandwidth)
{
    EXPECT_DOUBLE_EQ(nand_.aggregateChannelBw(), 600.0e6 * 4);
}

}  // namespace
}  // namespace bisc::nand
