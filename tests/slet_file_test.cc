/**
 * @file
 * Device-side File API tests: sync/async reads, EOF clamping, writes
 * with flush, matched scans, and argument binding (paper §III-D).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace bisc {
namespace {

/** Runs a scripted set of File operations and reports via port. */
class FileExerciser
    : public slet::SSDLet<slet::In<>, slet::Out<std::string>,
                          slet::Arg<slet::File, std::uint32_t>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        std::uint32_t variant = arg<1>();
        auto &k = context().runtime->kernel();

        switch (variant) {
          case 0: {  // sync read + EOF clamp
            std::vector<std::uint8_t> buf(64);
            Bytes n = file.read(0, buf.data(), buf.size());
            out<0>().put("first=" + std::to_string(buf[0]) +
                         ",n=" + std::to_string(n));
            Bytes past = file.read(file.size() + 10, buf.data(), 64);
            out<0>().put("past_eof=" + std::to_string(past));
            Bytes tail = file.read(file.size() - 3, buf.data(), 64);
            out<0>().put("tail=" + std::to_string(tail));
            break;
          }
          case 1: {  // async reads complete in issue order or later
            std::vector<std::uint8_t> a(16), b(16);
            auto t1 = file.readAsync(0, a.data(), a.size());
            auto t2 = file.readAsync(4096, b.data(), b.size());
            Tick before = k.now();
            t1.wait();
            t2.wait();
            out<0>().put(std::string("async_done=") +
                         (k.now() > before ? "later" : "instant"));
            out<0>().put("a0=" + std::to_string(a[0]) +
                         ",b0=" + std::to_string(b[0]));
            break;
          }
          case 2: {  // write + flush + read-back
            const char msg[] = "written-on-device";
            auto w = file.write(100, msg, sizeof(msg));
            EXPECT_FALSE(w.done());  // async: not yet durable
            file.flush();
            EXPECT_TRUE(w.done());
            std::vector<std::uint8_t> buf(sizeof(msg));
            file.read(100, buf.data(), buf.size());
            out<0>().put(std::string(
                reinterpret_cast<const char *>(buf.data())));
            break;
          }
          case 3: {  // matched scan reports offsets and first hits
            pm::KeySet keys;
            keys.addKey("MAGIC");
            keys.addKey("GIC");
            std::vector<std::pair<Bytes, std::size_t>> hits;
            auto token = file.scanMatched(
                0, file.size(), keys,
                [&](Bytes off, const std::uint8_t *, Bytes,
                    const pm::MatchResult &m) {
                    hits.emplace_back(off, m.firstHit());
                });
            token.wait();
            std::string s = "pages=";
            for (auto [off, first] : hits)
                s += std::to_string(off / 4096) + "@" +
                     std::to_string(first) + ";";
            out<0>().put(s);
            break;
          }
          default:
            BISC_PANIC("unknown variant");
        }
    }
};

DeclareModule("file_edge", 73'888);
RegisterSSDLet("file_edge", "idFileExerciser", FileExerciser);

class SletFileTest : public ::testing::Test
{
  protected:
    SletFileTest() : env_(ssd::testConfig())
    {
        env_.installModule("/fe.slet", "file_edge");
    }

    std::vector<std::string>
    runVariant(const std::string &path, std::uint32_t variant)
    {
        std::vector<std::string> out;
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/fe.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet ex(
                app, mid, "idFileExerciser",
                std::make_tuple(slet::File(path), variant));
            auto port = app.connectTo<std::string>(ex.out(0));
            app.start();
            std::string s;
            while (port.get(s))
                out.push_back(s);
            app.wait();
            ssd.unloadModule(mid);
        });
        return out;
    }

    sisc::Env env_;
};

TEST_F(SletFileTest, SyncReadAndEofClamping)
{
    std::vector<std::uint8_t> data(1000, 42);
    env_.fs.populate("/f", data.data(), data.size());
    auto out = runVariant("/f", 0);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], "first=42,n=64");
    EXPECT_EQ(out[1], "past_eof=0");
    EXPECT_EQ(out[2], "tail=3");
}

TEST_F(SletFileTest, AsyncReadsDeliverDataAfterWait)
{
    std::vector<std::uint8_t> data(8192);
    data[0] = 7;
    data[4096] = 9;
    env_.fs.populate("/f", data.data(), data.size());
    auto out = runVariant("/f", 1);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], "async_done=later");
    EXPECT_EQ(out[1], "a0=7,b0=9");
}

TEST_F(SletFileTest, WriteFlushReadBack)
{
    std::vector<std::uint8_t> data(4096, 0);
    env_.fs.populate("/f", data.data(), data.size());
    auto out = runVariant("/f", 2);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "written-on-device");
    // The write is durable in the FS too.
    std::vector<std::uint8_t> check(17);
    env_.fs.peek("/f", 100, check.size(), check.data());
    EXPECT_EQ(std::memcmp(check.data(), "written-on-devic", 16), 0);
}

TEST_F(SletFileTest, MatchedScanReportsOnlyMatchingPages)
{
    // 4 pages (4 KiB each); plant MAGIC on pages 1 and 3. The keys
    // are MAGIC and GIC: page 3's lone early GIC is its first hit.
    std::vector<std::uint8_t> data(4 * 4096, '.');
    std::memcpy(data.data() + 4096 + 17, "MAGIC", 5);
    std::memcpy(data.data() + 3 * 4096 + 5, "GIC", 3);
    std::memcpy(data.data() + 3 * 4096 + 1000, "MAGIC", 5);
    env_.fs.populate("/f", data.data(), data.size());
    auto out = runVariant("/f", 3);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "pages=1@17;3@5;");
}

TEST_F(SletFileTest, UnboundFileUseDies)
{
    slet::File f("/nowhere");
    EXPECT_FALSE(f.bound());
    EXPECT_DEATH((void)f.size(), "before the runtime bound it");
}

TEST_F(SletFileTest, FileWireFormatIsThePath)
{
    slet::File f("/some/path");
    Packet p = serialize(f);
    auto g = deserialize<slet::File>(p);
    EXPECT_EQ(g.path(), "/some/path");
    EXPECT_FALSE(g.bound());
}

}  // namespace
}  // namespace bisc
