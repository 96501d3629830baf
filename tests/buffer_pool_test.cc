/**
 * @file
 * Tests for the pooled zero-copy data path: BufferPool/PageRef
 * refcounting and freelist recycling, BufferView borrow/pin semantics,
 * and the end-to-end zero-allocation property — a steady-state device
 * scan hands out borrowed views without ever growing the pool.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fs/file_system.h"
#include "sim/buffer_pool.h"
#include "sim/kernel.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "util/common.h"

namespace bisc::sim {
namespace {

TEST(BufferPool, AcquireRecyclesThroughFreelist)
{
    BufferPool pool(512);
    EXPECT_EQ(pool.capacity(), 0u);

    {
        PageRef a = pool.acquire();
        PageRef b = pool.acquire();
        EXPECT_EQ(pool.misses(), 2u);
        EXPECT_EQ(pool.inUse(), 2u);
        EXPECT_NE(a.data(), b.data());
        EXPECT_EQ(a.size(), 512u);
    }
    // Both buffers returned; the next two acquires are freelist hits.
    EXPECT_EQ(pool.inUse(), 0u);
    PageRef c = pool.acquire();
    PageRef d = pool.acquire();
    EXPECT_EQ(pool.hits(), 2u);
    EXPECT_EQ(pool.misses(), 2u);
    EXPECT_EQ(pool.capacity(), 2u);
    // A third concurrent buffer is a genuine allocation.
    PageRef e = pool.acquire();
    EXPECT_EQ(pool.misses(), 3u);
    EXPECT_EQ(pool.capacity(), 3u);
    (void)c;
    (void)d;
    (void)e;
}

TEST(BufferPool, RefcountSharesAndReleasesOnce)
{
    BufferPool pool(64);
    PageRef a = pool.acquire();
    std::memset(a.data(), 0xAB, 64);

    PageRef b = a;            // copy: shared buffer
    PageRef c = std::move(a);  // move: a becomes empty
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_EQ(b.data(), c.data());
    EXPECT_EQ(b.data()[63], 0xAB);
    EXPECT_EQ(pool.inUse(), 1u);

    b.reset();
    EXPECT_EQ(pool.inUse(), 1u);  // c still holds it
    c.reset();
    EXPECT_EQ(pool.inUse(), 0u);

    // Self-assignment and re-assignment don't double-release.
    PageRef d = pool.acquire();
    d = d;  // NOLINT: deliberate self-assignment
    EXPECT_TRUE(static_cast<bool>(d));
    d = pool.acquire();
    EXPECT_EQ(pool.inUse(), 1u);
}

TEST(BufferPool, CopyInFillsBuffer)
{
    BufferPool pool(16);
    const std::uint8_t src[4] = {1, 2, 3, 4};
    PageRef r = pool.copyIn(src, 4);
    EXPECT_EQ(std::memcmp(r.data(), src, 4), 0);
}

TEST(BufferView, BorrowedViewDoesNotTouchPool)
{
    BufferPool pool(32);
    const std::uint8_t bytes[8] = {9, 8, 7, 6, 5, 4, 3, 2};
    BufferView v(bytes, 8);
    EXPECT_FALSE(v.pinned());
    EXPECT_EQ(v.data(), bytes);
    EXPECT_EQ(v.size(), 8u);
    EXPECT_EQ(pool.acquires(), 0u);
}

TEST(BufferView, PinCopiesBorrowedAndSharesPinned)
{
    BufferPool pool(32);
    const std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    BufferView borrowed(bytes, 8);

    BufferView pinned = borrowed.pin(pool);
    EXPECT_TRUE(pinned.pinned());
    EXPECT_NE(pinned.data(), bytes);
    EXPECT_EQ(std::memcmp(pinned.data(), bytes, 8), 0);
    EXPECT_EQ(pool.inUse(), 1u);

    // Pinning an already-pinned view shares the buffer (no copy).
    BufferView again = pinned.pin(pool);
    EXPECT_EQ(again.data(), pinned.data());
    EXPECT_EQ(pool.acquires(), 1u);

    // An empty view pins to itself.
    BufferView empty;
    EXPECT_FALSE(static_cast<bool>(empty.pin(pool)));
}

/**
 * End-to-end zero-allocation property (the PR's acceptance counter):
 * a steady-state matched scan over clean flash serves every page as a
 * borrowed view — borrows grow with pages scanned, while pool misses
 * (true heap allocations) stay at zero.
 */
TEST(BufferPool, SteadyStateScanIsAllocationFree)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    const Bytes page = dev.config().geometry.page_size;

    std::vector<std::uint8_t> buf(page, '.');
    std::memcpy(buf.data() + 100, "NEEDLE", 6);
    const ftl::Lpn kPages = 64;
    for (ftl::Lpn l = 0; l < kPages; ++l)
        dev.ftl().install(l, buf.data(), buf.size());

    auto &pool = dev.nand().bufferPool();
    const std::uint64_t borrows_before = pool.borrows();
    const std::uint64_t misses_before = pool.misses();

    pm::KeySet keys;
    keys.addKey("NEEDLE");
    for (ftl::Lpn l = 0; l < kPages; ++l) {
        ftl::ReadViewResult rv = dev.internalReadView(l, 0, page);
        ASSERT_TRUE(rv.status.ok());
        ASSERT_FALSE(rv.view.pinned());  // zero-copy: borrowed
        auto m = dev.matchView(l, keys, rv.view.data(), rv.view.size());
        EXPECT_TRUE(m.any);
    }

    EXPECT_EQ(pool.borrows() - borrows_before,
              static_cast<std::uint64_t>(kPages));
    EXPECT_EQ(pool.misses(), misses_before)
        << "steady-state read path heap-allocated per page";
}

/**
 * Partial-window reads of a full page are still borrows: the view
 * points into the stored page at the requested offset.
 */
TEST(BufferPool, PartialWindowBorrowsStoredPage)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    const Bytes page = dev.config().geometry.page_size;

    std::vector<std::uint8_t> buf(page);
    for (Bytes i = 0; i < page; ++i)
        buf[i] = static_cast<std::uint8_t>(i & 0xff);
    dev.ftl().install(5, buf.data(), buf.size());

    ftl::ReadViewResult rv = dev.internalReadView(5, 128, 256);
    ASSERT_TRUE(rv.status.ok());
    EXPECT_FALSE(rv.view.pinned());
    ASSERT_EQ(rv.view.size(), 256u);
    EXPECT_EQ(std::memcmp(rv.view.data(), buf.data() + 128, 256), 0);
}

/** Unmapped pages read as zeros through the shared zero page. */
TEST(BufferPool, UnmappedViewIsZeros)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());

    ftl::ReadViewResult rv = dev.internalReadView(123, 0, 512);
    ASSERT_TRUE(rv.status.ok());
    ASSERT_EQ(rv.view.size(), 512u);
    for (Bytes i = 0; i < 512; ++i)
        ASSERT_EQ(rv.view.data()[i], 0u) << "at " << i;
}

/**
 * View reads agree byte-for-byte (and tick-for-tick) with copying
 * reads issued in the same sequence on an identically-seeded device —
 * including under a bit-error fault model that forces ECC retries and
 * pinned (pool-copied) views on the uncorrectable pages.
 */
TEST(BufferPool, ViewReadMatchesCopyReadUnderFaults)
{
    ssd::SsdConfig cfg = ssd::testConfig();
    cfg.fault.enabled = true;
    cfg.fault.seed = 0x5eed;
    cfg.fault.raw_ber = 2.5e-3;  // frequent retries, some failures
    cfg.ecc.correctable_bits = 24;
    cfg.ecc.max_read_retries = 2;
    cfg.ecc.retry_ber_scale = 0.5;

    sim::Kernel k_view, k_copy;
    ssd::SsdDevice dev_view(k_view, cfg);
    ssd::SsdDevice dev_copy(k_copy, cfg);
    const Bytes page = cfg.geometry.page_size;

    std::vector<std::uint8_t> buf(page);
    const ftl::Lpn kPages = 32;
    for (ftl::Lpn l = 0; l < kPages; ++l) {
        for (Bytes i = 0; i < page; ++i)
            buf[i] = static_cast<std::uint8_t>((l * 31 + i) & 0xff);
        dev_view.ftl().install(l, buf.data(), buf.size());
        dev_copy.ftl().install(l, buf.data(), buf.size());
    }

    std::vector<std::uint8_t> out(page);
    for (ftl::Lpn l = 0; l < kPages; ++l) {
        ftl::ReadViewResult rv =
            dev_view.internalReadView(l, 0, page);
        ftl::ReadResult rc =
            dev_copy.internalRead(l, 0, page, out.data());
        ASSERT_EQ(rv.status.code(), rc.status.code()) << "lpn " << l;
        ASSERT_EQ(rv.done, rc.done) << "lpn " << l;
        ASSERT_EQ(rv.retries, rc.retries) << "lpn " << l;
        if (rv.status.ok()) {
            ASSERT_EQ(
                std::memcmp(rv.view.data(), out.data(), page), 0)
                << "lpn " << l;
        }
    }
}

}  // namespace
}  // namespace bisc::sim
