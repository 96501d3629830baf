/**
 * @file
 * Timing properties of the device model — the invariants every
 * reproduced number rests on: per-resource serialization, cross-
 * resource parallelism, bandwidth aggregation across channels, and
 * latency additivity along the conventional datapath.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fs/file_system.h"
#include "nand/nand.h"
#include "ok_done.h"
#include "sim/kernel.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "util/common.h"

namespace bisc {
namespace {

/** Streaming a region saturates all channels: N channels finish a
 *  channel-bound workload ~N/M times faster than M channels. */
class ChannelScaling : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(ChannelScaling, AggregateBandwidthScalesWithChannels)
{
    auto run = [](std::uint32_t channels) {
        nand::Geometry geo;
        geo.channels = channels;
        geo.ways_per_channel = 4;
        geo.pages_per_block = 32;
        geo.page_size = 4_KiB;
        geo.blocks_per_die = 16;
        sim::Kernel k;
        nand::NandFlash nand(k, geo, nand::NandTiming{});
        // Stream 512 pages; with enough ways, channel buses bind.
        Tick done = 0;
        for (nand::Ppn p = 0; p < 512; ++p)
            done = std::max(
                done, okDone(nand.readPage(p, 0, 4_KiB, nullptr)));
        return done;
    };
    std::uint32_t n = GetParam();
    Tick one = run(1);
    Tick many = run(n);
    double ratio = static_cast<double>(one) / static_cast<double>(many);
    // Within 25% of linear scaling (media latency overlaps anyway).
    EXPECT_GT(ratio, 0.75 * n) << "channels=" << n;
    EXPECT_LT(ratio, 1.25 * n) << "channels=" << n;
}

INSTANTIATE_TEST_SUITE_P(Widths, ChannelScaling,
                         ::testing::Values(2, 4, 8));

TEST(TimingProps, ProgramsSerializePerDieAcrossOps)
{
    nand::Geometry geo;
    geo.channels = 2;
    geo.ways_per_channel = 1;
    geo.pages_per_block = 8;
    geo.page_size = 1_KiB;
    geo.blocks_per_die = 8;
    sim::Kernel k;
    nand::NandFlash nand(k, geo, nand::NandTiming{});
    std::vector<std::uint8_t> buf(1_KiB, 1);

    // Two programs to the same die serialize on tPROG; a read queued
    // behind them waits for both.
    nand::Ppn a = 0, b = a + geo.dies();
    Tick p1 = okDone(nand.programPage(a, buf.data(), buf.size()));
    Tick p2 = okDone(nand.programPage(b, buf.data(), buf.size()));
    EXPECT_GE(p2, p1 + nand::NandTiming{}.program_page);
    Tick r = okDone(nand.readPage(a, 0, 16, nullptr));
    EXPECT_GE(r, p2);
}

TEST(TimingProps, EraseBlocksReadsOnThatDieOnly)
{
    nand::Geometry geo;
    geo.channels = 2;
    geo.ways_per_channel = 1;
    geo.pages_per_block = 8;
    geo.page_size = 1_KiB;
    geo.blocks_per_die = 8;
    sim::Kernel k;
    nand::NandFlash nand(k, geo, nand::NandTiming{});

    Tick e = okDone(nand.eraseBlock(0));  // die slot 0
    // A read on the erased die queues behind tBERS...
    Tick r_same = okDone(nand.readPage(0, 0, 16, nullptr));
    EXPECT_GE(r_same, e);
    // ...while the other die is untouched.
    Tick r_other = okDone(nand.readPage(1, 0, 16, nullptr));
    EXPECT_LT(r_other, e);
}

TEST(TimingProps, ConvLatencyIsInternalPlusHostInterface)
{
    // The Table III identity must hold for arbitrary read sizes, not
    // just the calibrated 4 KiB point.
    for (Bytes len : {512ull, 2048ull, 4096ull}) {
        sim::Kernel k1;
        ssd::SsdDevice d1(k1, ssd::testConfig());
        std::vector<std::uint8_t> page(
            d1.config().geometry.page_size, 7);
        d1.ftl().install(0, page.data(), page.size());
        Tick internal = okDone(d1.internalRead(0, 0, len, nullptr));

        sim::Kernel k2;
        ssd::SsdDevice d2(k2, ssd::testConfig());
        d2.ftl().install(0, page.data(), page.size());
        Tick conv = d2.hostRead(0, 0, len, nullptr);

        const auto &hp = d1.config().hil_params;
        Tick iface = hp.submission_latency + hp.dma_setup +
                     transferTicks(len, hp.pcie_bw) +
                     hp.completion_latency;
        EXPECT_EQ(conv, internal + iface) << "len=" << len;
    }
}

TEST(TimingProps, FsParallelReadBoundedByWidestResource)
{
    // Reading a whole striped file completes no earlier than the
    // busiest channel's serial transfer time, and no later than a
    // fully serial execution.
    sim::Kernel k;
    ssd::SsdDevice dev(k, ssd::testConfig());
    fs::FileSystem fsys(dev);
    const auto &geo = dev.config().geometry;
    const auto &nt = dev.config().nand_timing;

    Bytes total = 64 * geo.page_size;
    fsys.populateWith("/f", total,
                      [](Bytes, std::uint8_t *b, Bytes n) {
                          std::fill(b, b + n, 1);
                      });
    Tick done = okDone(fsys.read("/f", 0, total, nullptr));

    Bytes pages_per_channel = 64 / geo.channels;
    Tick xfer = nt.channel_cmd +
                transferTicks(geo.page_size, nt.channel_bw);
    Tick lower = pages_per_channel * xfer;  // bus-bound floor
    Tick upper = 64 * (nt.read_page + xfer);  // fully serial ceiling
    EXPECT_GE(done, lower);
    EXPECT_LT(done, upper);
}

TEST(TimingProps, WritesAreSlowerThanReads)
{
    sim::Kernel k;
    ssd::SsdDevice dev(k, ssd::testConfig());
    std::vector<std::uint8_t> page(dev.config().geometry.page_size,
                                   3);
    Tick w = dev.internalWrite(0, page.data(), page.size());

    sim::Kernel k2;
    ssd::SsdDevice d2(k2, ssd::testConfig());
    d2.ftl().install(0, page.data(), page.size());
    Tick r = okDone(d2.internalRead(0, 0, page.size(), nullptr));
    EXPECT_GT(w, 2 * r) << "tPROG should dominate tR";
}

}  // namespace
}  // namespace bisc
