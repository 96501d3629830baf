/**
 * @file
 * Tests for the SSD-resident file system: namespace ops, population,
 * timed reads/writes, extent mapping and space reuse.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "fs/file_system.h"
#include "ok_done.h"
#include "sim/kernel.h"
#include "ssd/config.h"
#include "ssd/device.h"

namespace bisc::fs {
namespace {

class FsTest : public ::testing::Test
{
  protected:
    FsTest() : dev_(kernel_, ssd::testConfig()), fs_(dev_) {}

    std::vector<std::uint8_t>
    bytes(Bytes n, std::uint8_t seed = 1)
    {
        std::vector<std::uint8_t> v(n);
        for (Bytes i = 0; i < n; ++i)
            v[i] = static_cast<std::uint8_t>(seed + i * 13);
        return v;
    }

    sim::Kernel kernel_;
    ssd::SsdDevice dev_;
    FileSystem fs_;
};

TEST_F(FsTest, CreateExistsRemove)
{
    EXPECT_FALSE(fs_.exists("/data/a"));
    fs_.create("/data/a");
    EXPECT_TRUE(fs_.exists("/data/a"));
    EXPECT_EQ(fs_.size("/data/a"), 0u);
    fs_.remove("/data/a");
    EXPECT_FALSE(fs_.exists("/data/a"));
    fs_.remove("/data/a");  // idempotent
}

TEST_F(FsTest, DuplicateCreatePanics)
{
    fs_.create("/x");
    EXPECT_DEATH(fs_.create("/x"), "existing path");
}

TEST_F(FsTest, PopulateAndRead)
{
    auto data = bytes(10000);
    fs_.populate("/data/blob", data.data(), data.size());
    EXPECT_EQ(fs_.size("/data/blob"), data.size());

    std::vector<std::uint8_t> out(data.size());
    okDone(fs_.read("/data/blob", 0, out.size(), out.data()));
    EXPECT_EQ(out, data);
}

TEST_F(FsTest, ReadAtOffsetAcrossPageBoundary)
{
    auto data = bytes(3 * 4_KiB);
    fs_.populate("/f", data.data(), data.size());
    std::vector<std::uint8_t> out(4_KiB);
    Bytes off = 4_KiB - 100;  // straddles first page boundary
    okDone(fs_.read("/f", off, out.size(), out.data()));
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + off));
}

TEST_F(FsTest, ReadPastEofClamps)
{
    auto data = bytes(100);
    fs_.populate("/f", data.data(), data.size());
    std::vector<std::uint8_t> out(200, 0xaa);
    okDone(fs_.read("/f", 50, out.size(), out.data()));
    // Only 50 bytes available.
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 50,
                           data.begin() + 50));
    EXPECT_EQ(out[50], 0xaa);  // untouched
}

TEST_F(FsTest, WriteExtendsFile)
{
    fs_.create("/w");
    auto data = bytes(6000, 9);
    fs_.write("/w", 0, data.data(), data.size());
    EXPECT_EQ(fs_.size("/w"), 6000u);

    auto more = bytes(4_KiB, 5);
    fs_.write("/w", 6000, more.data(), more.size());
    EXPECT_EQ(fs_.size("/w"), 6000u + 4_KiB);

    std::vector<std::uint8_t> out(4_KiB);
    okDone(fs_.read("/w", 6000, out.size(), out.data()));
    EXPECT_EQ(out, more);
}

TEST_F(FsTest, PartialPageWriteIsReadModifyWrite)
{
    auto data = bytes(4_KiB, 1);
    fs_.populate("/rmw", data.data(), data.size());
    std::uint8_t patch[16];
    std::memset(patch, 0xCC, sizeof(patch));
    fs_.write("/rmw", 1000, patch, sizeof(patch));

    std::vector<std::uint8_t> out(4_KiB);
    okDone(fs_.read("/rmw", 0, out.size(), out.data()));
    for (Bytes i = 0; i < 4_KiB; ++i) {
        if (i >= 1000 && i < 1016)
            EXPECT_EQ(out[i], 0xCC);
        else
            EXPECT_EQ(out[i], data[i]) << "i=" << i;
    }
}

TEST_F(FsTest, SparseWriteZeroFillsHole)
{
    fs_.create("/hole");
    std::uint8_t b = 0x77;
    fs_.write("/hole", 10000, &b, 1);
    std::vector<std::uint8_t> out(16, 0xff);
    okDone(fs_.read("/hole", 0, out.size(), out.data()));
    for (auto v : out)
        EXPECT_EQ(v, 0);
}

TEST_F(FsTest, ListByPrefix)
{
    fs_.create("/var/isc/slets/wordcount.slet");
    fs_.create("/var/isc/slets/grep.slet");
    fs_.create("/data/weblog");
    auto slets = fs_.list("/var/isc/slets/");
    EXPECT_EQ(slets.size(), 2u);
    EXPECT_EQ(fs_.list("").size(), 3u);
    EXPECT_TRUE(fs_.list("/nope").empty());
}

TEST_F(FsTest, LpnMappingIsStable)
{
    auto data = bytes(12 * 1_KiB);
    fs_.populate("/m", data.data(), data.size());
    auto l0 = fs_.lpnAt("/m", 0);
    auto l1 = fs_.lpnAt("/m", 4_KiB);
    EXPECT_NE(l0, l1);
    EXPECT_EQ(fs_.lpnAt("/m", 4_KiB - 1), l0);
    EXPECT_EQ(fs_.pagesOf("/m").size(), 3u);
}

TEST_F(FsTest, RemoveRecyclesPages)
{
    auto data = bytes(8 * 4_KiB);
    fs_.populate("/a", data.data(), data.size());
    auto first = fs_.pagesOf("/a").front();
    fs_.remove("/a");
    fs_.populate("/b", data.data(), data.size());
    // Freed lpns get reused.
    const auto &pages = fs_.pagesOf("/b");
    EXPECT_NE(std::find(pages.begin(), pages.end(), first),
              pages.end());
}

TEST_F(FsTest, LargePopulateViaFiller)
{
    Bytes total = 40 * 4_KiB + 123;
    fs_.populateWith("/big", total,
                     [](Bytes off, std::uint8_t *buf, Bytes n) {
                         for (Bytes i = 0; i < n; ++i)
                             buf[i] = static_cast<std::uint8_t>(
                                 (off + i) % 251);
                     });
    EXPECT_EQ(fs_.size("/big"), total);
    std::vector<std::uint8_t> out(512);
    Bytes off = 17 * 4_KiB + 11;
    okDone(fs_.read("/big", off, out.size(), out.data()));
    for (Bytes i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], (off + i) % 251);
}

TEST_F(FsTest, ParallelPagesFinishFasterThanSerial)
{
    const auto &geo = dev_.config().geometry;
    auto data = bytes(geo.channels * geo.page_size);
    fs_.populate("/wide", data.data(), data.size());
    Tick one_page = okDone(fs_.read("/wide", 0, geo.page_size, nullptr));
    // A fresh kernel baseline would be cleaner, but server queues only
    // grow, so reading N striped pages right after must cost much less
    // than N x one page.
    Tick t0 = kernel_.now();
    Tick all = okDone(fs_.read("/wide", 0, data.size(), nullptr));
    EXPECT_LT(all - t0, static_cast<Tick>(geo.channels) * one_page);
}

TEST_F(FsTest, MissingFilePanics)
{
    EXPECT_DEATH(fs_.size("/missing"), "no such file");
    EXPECT_DEATH(fs_.read("/missing", 0, 1, nullptr), "no such file");
}

}  // namespace
}  // namespace bisc::fs
