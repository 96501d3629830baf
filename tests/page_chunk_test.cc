/**
 * @file
 * PageChunk pipeline tests: pooled pages flow between SSDlets through
 * inter-SSDlet ports by reference (no byte copies), buffers return to
 * the pool when the last stage drops them, and host-crossing ports
 * reject the type loudly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/buffer_pool.h"
#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/ssd.h"
#include "slet/page_chunk.h"
#include "slet/port.h"
#include "slet/ssdlet.h"
#include "util/common.h"
#include "util/serialize.h"

namespace bisc {
namespace {

static_assert(!IsSerializable<slet::PageChunk>::value,
              "PageChunk must not be serializable: it carries a "
              "device-local pool reference");

/**
 * Emits N chunks from the device buffer pool. The first bytes of each
 * payload embed the producer-side data pointer so the consumer can
 * prove the bytes were never copied in transit.
 */
class ChunkProducer
    : public slet::SSDLet<slet::In<>, slet::Out<slet::PageChunk>,
                          slet::Arg<std::uint64_t>>
{
  public:
    void
    run() override
    {
        std::uint64_t n = arg<0>();
        auto &pool =
            context().runtime->device().nand().bufferPool();
        for (std::uint64_t i = 0; i < n; ++i) {
            sim::PageRef page = pool.acquire();
            std::memset(page.data(), static_cast<int>('a' + i % 26),
                        64);
            auto addr =
                reinterpret_cast<std::uintptr_t>(page.data());
            std::memcpy(page.data(), &addr, sizeof(addr));
            out<0>().put(
                slet::PageChunk(i * 64, 64, std::move(page)));
        }
    }
};

/** Verifies pointer identity and payload of each received chunk. */
class ChunkConsumer
    : public slet::SSDLet<slet::In<slet::PageChunk>,
                          slet::Out<std::string>, slet::Arg<>>
{
  public:
    void
    run() override
    {
        slet::PageChunk c;
        while (in<0>().get(c)) {
            std::uintptr_t sent = 0;
            std::memcpy(&sent, c.data(), sizeof(sent));
            bool zero_copy =
                sent == reinterpret_cast<std::uintptr_t>(c.data());
            bool payload_ok =
                c.len == 64 &&
                c.data()[sizeof(sent)] ==
                    static_cast<std::uint8_t>('a' + (c.offset / 64) %
                                                        26);
            out<0>().put("chunk=" + std::to_string(c.offset / 64) +
                         ",zerocopy=" + (zero_copy ? "1" : "0") +
                         ",payload=" + (payload_ok ? "1" : "0"));
        }
    }
};

DeclareModule("chunkpipe", 82'120);
RegisterSSDLet("chunkpipe", "idChunkProducer", ChunkProducer);
RegisterSSDLet("chunkpipe", "idChunkConsumer", ChunkConsumer);

class PageChunkTest : public ::testing::Test
{
  protected:
    PageChunkTest() : env_(ssd::testConfig())
    {
        env_.installModule("/cp.slet", "chunkpipe");
    }

    sisc::Env env_;
};

TEST_F(PageChunkTest, ChunksCrossInterSsdletPortsByReference)
{
    // More chunks than the port's bounded queue (64) can hold at
    // once, so recycling is observable in the pool's high-water mark.
    constexpr std::uint64_t kChunks = 200;
    auto &pool = env_.runtime.device().nand().bufferPool();
    const std::size_t in_use_before = pool.inUse();

    std::vector<std::string> got;
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/cp.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet producer(app, mid, "idChunkProducer",
                              std::make_tuple(kChunks));
        sisc::SSDLet consumer(app, mid, "idChunkConsumer");
        app.connect(producer.out(0), consumer.in(0));
        auto port = app.connectTo<std::string>(consumer.out(0));
        app.start();
        std::string s;
        while (port.get(s))
            got.push_back(s);
        app.wait();
        ssd.unloadModule(mid);
    });

    ASSERT_EQ(got.size(), kChunks);
    for (std::uint64_t i = 0; i < kChunks; ++i) {
        EXPECT_EQ(got[i], "chunk=" + std::to_string(i) +
                              ",zerocopy=1,payload=1");
    }
    // Every chunk's buffer went back to the pool when the consumer
    // dropped it; the pipeline leaked nothing.
    EXPECT_EQ(pool.inUse(), in_use_before);
    // The pipeline's bounded queue caps how many chunks are in flight,
    // so the pool's working set stays far below the chunk count.
    EXPECT_LT(pool.capacity(), kChunks);
}

TEST(PageChunkType, BasicAccessors)
{
    sim::BufferPool pool(128);
    slet::PageChunk empty;
    EXPECT_FALSE(static_cast<bool>(empty));

    sim::PageRef page = pool.acquire();
    page.data()[0] = 0x42;
    slet::PageChunk c(4096, 100, std::move(page));
    EXPECT_TRUE(static_cast<bool>(c));
    EXPECT_EQ(c.offset, 4096u);
    EXPECT_EQ(c.len, 100u);
    EXPECT_EQ(c.data()[0], 0x42);

    // Moving the chunk moves the reference, not the bytes.
    const std::uint8_t *p = c.data();
    slet::PageChunk d = std::move(c);
    EXPECT_EQ(d.data(), p);
    EXPECT_EQ(pool.inUse(), 1u);
    d = slet::PageChunk();
    EXPECT_EQ(pool.inUse(), 0u);
}

}  // namespace
}  // namespace bisc
