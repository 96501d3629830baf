/**
 * @file
 * Equivalence tests for the vectored read path: Ftl::readPages must be
 * byte-, status-, retry- and tick-identical to the same sequence of
 * single-page read calls — including under seeded media faults where
 * pages need ECC retries or come back uncorrectable — and the host
 * multi-page command built on it must keep its media parallelism.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fs/file_system.h"
#include "ftl/ftl.h"
#include "sim/kernel.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "util/common.h"

namespace bisc {
namespace {

/** Deterministic page pattern, distinct per lpn. */
void
fillPattern(std::vector<std::uint8_t> &buf, ftl::Lpn lpn)
{
    for (Bytes i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>((lpn * 131 + i * 7) & 0xff);
}

/** Install the same kPages pages into both devices. */
void
installPages(ssd::SsdDevice &a, ssd::SsdDevice &b, ftl::Lpn n_pages)
{
    const Bytes page = a.config().geometry.page_size;
    std::vector<std::uint8_t> buf(page);
    for (ftl::Lpn l = 0; l < n_pages; ++l) {
        fillPattern(buf, l);
        a.ftl().install(l, buf.data(), buf.size());
        b.ftl().install(l, buf.data(), buf.size());
    }
}

/**
 * Run readPages on one device and the equivalent read loop on an
 * identically-seeded twin; assert identical bytes, per-page Status,
 * per-page completion ticks and merged aggregates.
 */
void
expectBatchMatchesSingles(const ssd::SsdConfig &cfg, ftl::Lpn n_pages,
                          Tick earliest)
{
    sim::Kernel k_batch, k_single;
    ssd::SsdDevice dev_batch(k_batch, cfg);
    ssd::SsdDevice dev_single(k_single, cfg);
    installPages(dev_batch, dev_single, n_pages);
    const Bytes page = cfg.geometry.page_size;

    std::vector<ftl::Lpn> lpns;
    for (ftl::Lpn l = 0; l < n_pages; ++l)
        lpns.push_back(l);

    std::vector<std::uint8_t> out_batch(n_pages * page);
    std::vector<ftl::ReadResult> per_page(n_pages);
    ftl::BatchReadResult br = dev_batch.ftl().readPages(
        lpns.data(), lpns.size(), out_batch.data(), earliest,
        per_page.data());

    std::vector<std::uint8_t> out_single(n_pages * page);
    Tick expect_done = std::max(earliest, k_single.now());
    Status expect_status;
    std::uint32_t expect_retries = 0;
    for (ftl::Lpn l = 0; l < n_pages; ++l) {
        ftl::ReadResult r = dev_single.ftl().read(
            lpns[l], 0, page, out_single.data() + l * page, earliest);
        ASSERT_EQ(per_page[l].done, r.done) << "page " << l;
        ASSERT_EQ(per_page[l].status.code(), r.status.code())
            << "page " << l;
        ASSERT_EQ(per_page[l].retries, r.retries) << "page " << l;
        expect_done = std::max(expect_done, r.done);
        expect_retries += r.retries;
        if (!r.status.ok() && expect_status.ok())
            expect_status = r.status;
    }

    EXPECT_EQ(br.done, expect_done);
    EXPECT_EQ(br.status.code(), expect_status.code());
    EXPECT_EQ(br.retries, expect_retries);
    EXPECT_EQ(out_batch, out_single);
}

TEST(BatchedRead, MatchesSinglesOnCleanMedia)
{
    expectBatchMatchesSingles(ssd::testConfig(), 24, 0);
}

TEST(BatchedRead, MatchesSinglesWithEarliestConstraint)
{
    expectBatchMatchesSingles(ssd::testConfig(), 16, 50 * kUsec);
}

TEST(BatchedRead, MatchesSinglesUnderBitErrorFaults)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        ssd::SsdConfig cfg = ssd::testConfig();
        cfg.fault.enabled = true;
        cfg.fault.seed = seed;
        cfg.fault.raw_ber = 2.0e-3;  // retries common, some failures
        cfg.ecc.correctable_bits = 24;
        cfg.ecc.max_read_retries = 2;
        cfg.ecc.retry_ber_scale = 0.5;
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectBatchMatchesSingles(cfg, 32, 0);
    }
}

TEST(BatchedRead, NullOutputAndUnmappedPages)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    const Bytes page = dev.config().geometry.page_size;

    std::vector<std::uint8_t> buf(page, 3);
    dev.ftl().install(0, buf.data(), buf.size());
    // Lpn 1 left unmapped: reads as zeros at firmware cost.
    std::vector<ftl::Lpn> lpns{0, 1};
    std::vector<std::uint8_t> out(2 * page, 0xEE);
    ftl::BatchReadResult br =
        dev.ftl().readPages(lpns.data(), lpns.size(), out.data());
    EXPECT_TRUE(br.status.ok());
    EXPECT_EQ(out[0], 3u);
    EXPECT_EQ(out[page], 0u);

    // Timing-only probe: null output is legal.
    ftl::BatchReadResult probe =
        dev.ftl().readPages(lpns.data(), lpns.size(), nullptr);
    EXPECT_TRUE(probe.status.ok());
    EXPECT_GT(probe.done, br.done);
}

/**
 * The file-system read path drives whole-page runs through readPages;
 * its results must equal the bytes originally populated, and partial
 * head/tail windows must still work.
 */
TEST(BatchedRead, FileSystemReadSpansBatchAndPartials)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    fs::FileSystem fs(dev);
    const Bytes page = dev.config().geometry.page_size;

    std::vector<std::uint8_t> data(5 * page + 123);
    for (Bytes i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>((i * 13) & 0xff);
    fs.populate("/t", data.data(), data.size());

    // Misaligned window covering a partial head, 4 whole pages and a
    // partial tail.
    Bytes off = page / 2;
    Bytes len = 4 * page + page / 4;
    std::vector<std::uint8_t> out(len);
    fs::ReadResult r = fs.read("/t", off, len, out.data(), 0);
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.bytes, len);
    EXPECT_EQ(std::memcmp(out.data(), data.data() + off, len), 0);
}

/**
 * Media parallelism survives the batching: N channel-striped pages in
 * one vectored command complete in far less than N serial reads.
 */
TEST(BatchedRead, KeepsChannelParallelism)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    const auto &geo = dev.config().geometry;
    std::vector<std::uint8_t> buf(geo.page_size, 1);
    std::vector<ftl::Lpn> lpns;
    for (ftl::Lpn l = 0; l < geo.channels; ++l) {
        dev.ftl().install(l, buf.data(), buf.size());
        lpns.push_back(l);
    }
    Tick t0 = kernel.now();
    ftl::BatchReadResult br =
        dev.ftl().readPages(lpns.data(), lpns.size(), nullptr);

    sim::Kernel k2;
    ssd::SsdDevice d2(k2, ssd::testConfig());
    d2.ftl().install(0, buf.data(), buf.size());
    ftl::ReadResult single = d2.ftl().read(0, 0, geo.page_size,
                                           nullptr);
    EXPECT_LT(br.done - t0,
              static_cast<Tick>(geo.channels) * single.done / 2);
}

}  // namespace
}  // namespace bisc
