/**
 * @file
 * Tests for the host system model: contention under StreamBench load,
 * the conventional pread/streamRead paths, the search kernel, the
 * word counter, and the Conv-vs-Biscuit grep pair (paper Table V
 * shape).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host/grep.h"
#include "host/host_system.h"
#include "host/load_gen.h"
#include "pm/pattern_matcher.h"
#include "sisc/env.h"
#include "util/common.h"
#include "util/rng.h"

namespace bisc::host {
namespace {

class HostTest : public ::testing::Test
{
  protected:
    HostTest() : env_(ssd::testConfig(), 1), host_(env_.array) {}

    sisc::Env env_;
    HostSystem host_;
};

TEST_F(HostTest, ContentionFactorScalesWithThreads)
{
    EXPECT_DOUBLE_EQ(host_.contentionFactor(), 1.0);
    host_.setLoadThreads(24);
    EXPECT_NEAR(host_.contentionFactor(), 1.63, 0.01);
    host_.setLoadThreads(0);
    EXPECT_DOUBLE_EQ(host_.contentionFactor(), 1.0);
}

TEST_F(HostTest, LoadBeyondHardwarePanics)
{
    EXPECT_DEATH(host_.setLoadThreads(25), "exceed hardware");
}

TEST_F(HostTest, StreamBenchIsRaii)
{
    {
        StreamBench load(host_, 12);
        EXPECT_EQ(host_.loadThreads(), 12u);
        {
            StreamBench more(host_, 24);
            EXPECT_EQ(host_.loadThreads(), 24u);
        }
        EXPECT_EQ(host_.loadThreads(), 12u);
    }
    EXPECT_EQ(host_.loadThreads(), 0u);
}

TEST_F(HostTest, PreadReturnsData)
{
    std::string text = "host visible bytes";
    env_.fs.populate("/f", text.data(), text.size());
    std::string out(text.size(), '\0');
    env_.run([&] {
        Bytes n = host_.pread(0, "/f", 0, out.data(), out.size());
        EXPECT_EQ(n, text.size());
    });
    EXPECT_EQ(out, text);
}

TEST_F(HostTest, CpuWorkSlowsUnderLoad)
{
    Tick unloaded = 0, loaded = 0;
    env_.run([&] {
        Tick t0 = env_.kernel.now();
        host_.consumeCpu(1 * kMsec);
        unloaded = env_.kernel.now() - t0;
        StreamBench load(host_, 24);
        t0 = env_.kernel.now();
        host_.consumeCpu(1 * kMsec);
        loaded = env_.kernel.now() - t0;
    });
    EXPECT_EQ(unloaded, 1 * kMsec);
    EXPECT_NEAR(static_cast<double>(loaded) /
                    static_cast<double>(unloaded),
                1.63, 0.01);
}

TEST_F(HostTest, StreamReadCoversWholeFileInOrder)
{
    std::vector<std::uint8_t> data(40 * 1024);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i % 251);
    env_.fs.populate("/s", data.data(), data.size());

    Bytes seen = 0;
    env_.run([&] {
        host_.streamRead(
            0, "/s", 0, data.size(), 16 * 1024,
            [&](Bytes, Bytes, const StreamPages &pages) {
                pages.forEach([&](Bytes off, const sim::BufferView &v) {
                    EXPECT_EQ(off, seen);
                    for (Bytes i = 0; i < v.size(); ++i)
                        EXPECT_EQ(v.data()[i], data[off + i]);
                    seen += v.size();
                });
            });
    });
    EXPECT_EQ(seen, data.size());
}

TEST_F(HostTest, StreamReadOverlapsComputeWithIo)
{
    // A compute-free streamRead is I/O bound; the same read with
    // per-chunk compute that dominates I/O should cost roughly the
    // compute time, not compute + I/O.
    Bytes size = 64 * 4_KiB;
    std::vector<std::uint8_t> data(size, 7);
    env_.fs.populate("/big", data.data(), data.size());

    Tick io_only = 0, mixed = 0, compute = 20 * kMsec;
    int windows = 0;
    env_.run([&] {
        Tick t0 = env_.kernel.now();
        host_.streamRead(0, "/big", 0, size, 16 * 4_KiB,
                         [](Bytes, Bytes, const StreamPages &) {});
        io_only = env_.kernel.now() - t0;

        t0 = env_.kernel.now();
        host_.streamRead(0, "/big", 0, size, 16 * 4_KiB,
                         [&](Bytes, Bytes, const StreamPages &) {
                             ++windows;
                             host_.consumeCpu(compute / 4);
                         });
        mixed = env_.kernel.now() - t0;
    });
    // One callback per readahead window: the compute above is charged
    // per window, so a per-page callback would charge it 16 times.
    EXPECT_EQ(windows, 4);
    EXPECT_LT(mixed, io_only + compute);
    EXPECT_GE(mixed, compute);
}

// ----- Per-drive reads -----

/** What the three host reads of one file returned, and when. */
struct DriveReads
{
    std::vector<std::uint8_t> pread_bytes, stream_bytes;
    Tick pread_ticks = 0, stream_ticks = 0, timed_ticks = 0;
    Bytes timed_bytes = 0;
};

/**
 * pread, streamRead and streamReadTimed of @p size bytes of "/d" on
 * drive @p drive of @p env, checking inside every stream callback
 * that the drive counts one active stream and no other drive any.
 */
DriveReads
readFromDrive(sisc::Env &env, std::uint32_t drive, Bytes size)
{
    HostSystem host(env.array);
    auto expectActive = [&](std::uint32_t want) {
        for (std::uint32_t d = 0; d < host.driveCount(); ++d)
            EXPECT_EQ(host.activeStreamsOn(d), d == drive ? want : 0u)
                << "drive " << d;
    };
    DriveReads r;
    r.pread_bytes.resize(size);
    env.run([&] {
        Tick t0 = env.kernel.now();
        EXPECT_EQ(host.pread(drive, "/d", 0, r.pread_bytes.data(), size),
                  size);
        r.pread_ticks = env.kernel.now() - t0;

        t0 = env.kernel.now();
        host.streamRead(drive, "/d", 0, size, 4 * 4_KiB,
                        [&](Bytes, Bytes, const StreamPages &pages) {
                            expectActive(1);
                            pages.forEach([&](Bytes,
                                              const sim::BufferView &v) {
                                r.stream_bytes.insert(
                                    r.stream_bytes.end(), v.data(),
                                    v.data() + v.size());
                            });
                        });
        r.stream_ticks = env.kernel.now() - t0;
        expectActive(0);

        t0 = env.kernel.now();
        host.streamReadTimed(drive, "/d", 0, size, 4 * 4_KiB,
                             [&](Bytes, Bytes n) {
                                 expectActive(1);
                                 r.timed_bytes += n;
                             });
        r.timed_ticks = env.kernel.now() - t0;
        expectActive(0);
    });
    return r;
}

TEST(HostPerDrive, DriveOneReadsMatchDriveZeroOfOneDriveArray)
{
    const Bytes size = 37 * 4_KiB + 555;  // partial last page
    std::vector<std::uint8_t> data(size);
    for (std::size_t i = 0; i < size; ++i)
        data[i] = static_cast<std::uint8_t>((i * 7 + i / 13) % 256);

    sisc::Env two(ssd::testConfig(), 2);
    two.array.drive(1).fs.populate("/d", data.data(), size);
    sisc::Env one(ssd::testConfig(), 1);
    one.fs.populate("/d", data.data(), size);

    const DriveReads got = readFromDrive(two, 1, size);
    const DriveReads want = readFromDrive(one, 0, size);
    EXPECT_EQ(got.pread_bytes, data);
    EXPECT_EQ(got.stream_bytes, data);
    EXPECT_EQ(got.timed_bytes, size);
    EXPECT_GT(got.pread_ticks, 0u);
    EXPECT_EQ(got.pread_ticks, want.pread_ticks);
    EXPECT_EQ(got.stream_ticks, want.stream_ticks);
    EXPECT_EQ(got.timed_ticks, want.timed_ticks);
    // Drive 0 of the two-drive array holds no "/d" at all.
    EXPECT_FALSE(two.fs.exists("/d"));
}

// ----- Stream views on 4 KiB and 16 KiB pages -----

/**
 * Host streams on both page geometries the simulator runs: the 4 KiB
 * test drive and the 16 KiB default drive. Files end on a partial
 * page so the last view is shorter than a page.
 */
class StreamView : public ::testing::TestWithParam<Bytes>
{
  protected:
    StreamView() : env_(config(), 1), host_(env_.array) {}

    static ssd::SsdConfig
    config()
    {
        return GetParam() == 4_KiB ? ssd::testConfig()
                                   : ssd::defaultConfig();
    }

    sisc::Env env_;
    HostSystem host_;
};

TEST_P(StreamView, StreamsTheSameBytesAsPeek)
{
    const Bytes page = GetParam();
    ASSERT_EQ(env_.fs.pageSize(), page);
    const Bytes size = 9 * page + 1234;  // partial last page
    std::vector<std::uint8_t> data(size);
    for (std::size_t i = 0; i < size; ++i)
        data[i] = static_cast<std::uint8_t>((i * 131 + i / 7) % 256);
    env_.fs.populate("/v", data.data(), size);
    std::vector<std::uint8_t> peeked(size);
    ASSERT_EQ(env_.fs.peek("/v", 0, size, peeked.data()), size);
    ASSERT_EQ(peeked, data);

    // Whole file, then a page-aligned suffix, at a 4-page window.
    for (Bytes start : {Bytes{0}, 2 * page}) {
        std::vector<std::uint8_t> seen;
        std::vector<Bytes> offsets;
        env_.run([&] {
            host_.streamRead(
                0, "/v", start, size - start, 4 * page,
                [&](Bytes off, Bytes, const StreamPages &pages) {
                    offsets.push_back(off);
                    pages.forEach([&](Bytes, const sim::BufferView &v) {
                        seen.insert(seen.end(), v.data(),
                                    v.data() + v.size());
                    });
                });
        });
        EXPECT_EQ(seen, std::vector<std::uint8_t>(
                            peeked.begin() +
                                static_cast<std::ptrdiff_t>(start),
                            peeked.end()))
            << "start " << start;
        std::vector<Bytes> want;
        for (Bytes off = start; off < size; off += 4 * page)
            want.push_back(off);
        EXPECT_EQ(offsets, want) << "start " << start;
    }
}

/** Counts and ticks of the host scans on a fixed web-log corpus,
 *  recorded before host streams borrowed page views. */
struct ScanPins
{
    std::uint64_t words, lines, wc_bytes;
    Tick wc_elapsed;
    std::uint64_t matches;
    Tick grep_elapsed;
};

TEST_P(StreamView, HostScanCountsAndTicksArePinned)
{
    generateWebLog(env_.fs, "/weblog", 3 * 1_MiB + 4321, "sig_ndp", 25,
                   11);
    WordCountResult wc;
    GrepResult grep;
    env_.run([&] {
        wc = wordCount(host_, 0, "/weblog");
        grep = grepConv(host_, 0, "/weblog", "sig_ndp");
    });
    const ScanPins got{wc.words,   wc.lines,     wc.bytes_scanned,
                       wc.elapsed, grep.matches, grep.elapsed};
    const ScanPins want = GetParam() == 4_KiB
                              ? ScanPins{415014, 46112, 3150049,
                                         7336274, 1845, 7336274}
                              : ScanPins{415014, 46112, 3150049,
                                         5035957, 1845, 5035957};
    EXPECT_EQ(got.words, want.words);
    EXPECT_EQ(got.lines, want.lines);
    EXPECT_EQ(got.wc_bytes, want.wc_bytes);
    EXPECT_EQ(got.wc_elapsed, want.wc_elapsed);
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.grep_elapsed, want.grep_elapsed);
    EXPECT_EQ(grep.bytes_scanned, wc.bytes_scanned);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, StreamView,
                         ::testing::Values(4_KiB, 16_KiB));

// ----- The search kernel -----
//
// These cases were written for the host's Boyer-Moore searcher and
// keep its suite name; the host grep, the device grep SSDlet and the
// channel matcher now all count with pm::find, which they pin.

std::size_t
findIn(const std::string &hay, const std::string &key,
       std::size_t from = 0)
{
    return pm::find(reinterpret_cast<const std::uint8_t *>(hay.data()),
                    hay.size(), key, from);
}

std::uint64_t
countIn(const std::string &hay, const std::string &key)
{
    return pm::count(reinterpret_cast<const std::uint8_t *>(hay.data()),
                     hay.size(), key);
}

TEST(BoyerMoore, FindsFirstOccurrence)
{
    EXPECT_EQ(findIn("hay needle hay needle", "needle"), 4u);
}

TEST(BoyerMoore, FindRespectsStart)
{
    EXPECT_EQ(findIn("ab..ab", "ab", 1), 4u);
}

TEST(BoyerMoore, CountsOverlapping)
{
    EXPECT_EQ(countIn("aaaa", "aa"), 3u);
}

TEST(BoyerMoore, AbsentPatternReturnsNothing)
{
    EXPECT_EQ(findIn("no stripes here", "zebra"), std::string::npos);
    EXPECT_EQ(countIn("no stripes here", "zebra"), 0u);
}

TEST(BoyerMoore, WorksOnRepetitivePatterns)
{
    EXPECT_EQ(countIn("abababab", "abab"), 3u);
}

// ----- Word counter vs the byte-at-a-time loop -----

/** The byte-at-a-time loop wordCount ran before its vector form. */
void
tallyBytewise(WordTally &t, const std::uint8_t *data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        const std::uint8_t c = data[i];
        const bool space =
            c == ' ' || c == '\n' || c == '\t' || c == '\r';
        if (c == '\n')
            ++t.lines;
        if (!space && !t.in_word)
            ++t.words;
        t.in_word = !space;
    }
}

void
expectSameTally(const WordTally &got, const WordTally &want,
                const std::string &what)
{
    EXPECT_EQ(got.words, want.words) << what;
    EXPECT_EQ(got.lines, want.lines) << what;
    EXPECT_EQ(got.in_word, want.in_word) << what;
}

TEST(WordTally, AgreesWithByteLoopAcrossChunkings)
{
    Rng rng(seedFromEnv(17));
    const std::uint8_t alphabet[] = {' ', '\n', '\t', '\r',
                                     'a', 0x00, 0xff};
    for (int round = 0; round < 12; ++round) {
        // Lengths around the 16-byte step and well past the 255-step
        // lane fold (255 * 16 bytes).
        const std::size_t len = round < 6 ? 1 + rng.below(64)
                                          : 4000 + rng.below(5000);
        std::vector<std::uint8_t> data(len);
        for (auto &b : data)
            b = alphabet[rng.below(sizeof(alphabet))];
        for (bool carried : {false, true}) {
            WordTally want;
            want.in_word = carried;
            tallyBytewise(want, data.data(), len);

            for (std::size_t k = 0; k <= 40; ++k) {
                const std::string what = "round " +
                                         std::to_string(round) +
                                         " k " + std::to_string(k);
                // Two chunks split at offset k.
                WordTally split;
                split.in_word = carried;
                const std::size_t cut = std::min(k, len);
                split.scan(data.data(), cut);
                split.scan(data.data() + cut, len - cut);
                expectSameTally(split, want, "split " + what);
                if (k == 0)
                    continue;
                // Chunks of k bytes, most shorter than 17.
                WordTally chunked;
                chunked.in_word = carried;
                for (std::size_t off = 0; off < len; off += k)
                    chunked.scan(data.data() + off,
                                 std::min(k, len - off));
                expectSameTally(chunked, want, "chunks " + what);
            }
        }
    }
}

// ----- Web-log + grep Conv vs Biscuit -----

TEST_F(HostTest, WebLogGeneratorPlantsNeedles)
{
    auto planted = generateWebLog(env_.fs, "/weblog", 200 * 1024,
                                  "ERROR_XYZ", 40, 7);
    EXPECT_GT(planted, 0u);
    // Reference count by brute scan.
    Bytes size = env_.fs.size("/weblog");
    std::vector<std::uint8_t> all(size);
    env_.fs.peek("/weblog", 0, size, all.data());
    std::uint64_t ref = pm::count(all.data(), all.size(), "ERROR_XYZ");
    // The final truncated line may cut one planted needle.
    EXPECT_GE(planted, ref);
    EXPECT_LE(planted - ref, 1u);
}

/** FNV-1a over the bytes of @p path, then the planted count. */
std::uint64_t
webLogDigest(Bytes total, std::uint32_t period, std::uint64_t seed)
{
    sisc::Env env(ssd::testConfig(), 1);
    const std::uint64_t planted =
        generateWebLog(env.fs, "/weblog", total, "sig_ndp", period, seed);
    std::vector<std::uint8_t> all(env.fs.size("/weblog"));
    env.fs.peek("/weblog", 0, all.size(), all.data());
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint8_t b : all) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return (h ^ planted) * 1099511628211ull;
}

TEST(WebLog, GeneratedBytesArePinned)
{
    // Pins the generated bytes: any change to the line format, the
    // RNG draw order or the page streaming moves these digests.
    struct Case
    {
        Bytes total;
        std::uint32_t period;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {1, 25, 11, 0x9b08ce00c5d06f35ull},
        {4096, 0, 7, 0x57d94aae6b3de1adull},
        {200 * 1024, 40, 7, 0x8ddbecc9eb88c919ull},
        {3 * 1_MiB + 4321, 25, 0x1234abcd, 0x30aeabf17adb305bull},
        {1_MiB, 1, 3, 0x7be5abaf83d51835ull},
    };
    for (const Case &c : cases) {
        const std::uint64_t d = webLogDigest(c.total, c.period, c.seed);
        EXPECT_EQ(d, c.digest)
            << "total " << c.total << " period " << c.period << " seed "
            << c.seed << ": 0x" << std::hex << d;
    }
}

TEST_F(HostTest, GrepConvFindsPlantedNeedles)
{
    generateWebLog(env_.fs, "/weblog", 300 * 1024, "sig_ndp", 25, 11);
    Bytes size = env_.fs.size("/weblog");
    std::vector<std::uint8_t> all(size);
    env_.fs.peek("/weblog", 0, size, all.data());
    std::uint64_t ref = pm::count(all.data(), all.size(), "sig_ndp");

    GrepResult r;
    env_.run([&] { r = grepConv(host_, 0, "/weblog", "sig_ndp"); });
    EXPECT_EQ(r.matches, ref);
    EXPECT_EQ(r.bytes_scanned, size);
    EXPECT_GT(r.elapsed, 0u);
}

TEST_F(HostTest, GrepBiscuitMatchesConvModuloPageSeams)
{
    generateWebLog(env_.fs, "/weblog", 300 * 1024, "sig_ndp", 25, 11);
    GrepResult conv, ndp;
    env_.run([&] {
        conv = grepConv(host_, 0, "/weblog", "sig_ndp");
        ndp = grepBiscuit(env_.runtime, "/weblog", "sig_ndp");
    });
    // The channel matcher scans page-granular streams; a needle
    // straddling a page boundary is the only legal miss.
    EXPECT_LE(ndp.matches, conv.matches);
    EXPECT_GE(ndp.matches + 3, conv.matches);
    EXPECT_GT(ndp.matches, 0u);
}

TEST_F(HostTest, GrepBiscuitIsFasterAndLoadInsensitive)
{
    generateWebLog(env_.fs, "/weblog", 512 * 1024, "sig_ndp", 50, 3);
    GrepResult conv0, conv24, ndp0, ndp24;
    env_.run([&] {
        conv0 = grepConv(host_, 0, "/weblog", "sig_ndp");
        ndp0 = grepBiscuit(env_.runtime, "/weblog", "sig_ndp");
        StreamBench load(host_, 24);
        conv24 = grepConv(host_, 0, "/weblog", "sig_ndp");
        ndp24 = grepBiscuit(env_.runtime, "/weblog", "sig_ndp");
    });
    // Conv degrades under load; Biscuit does not (Table V).
    EXPECT_GT(conv24.elapsed, conv0.elapsed);
    double ndp_ratio = static_cast<double>(ndp24.elapsed) /
                       static_cast<double>(ndp0.elapsed);
    EXPECT_NEAR(ndp_ratio, 1.0, 0.05);
}

}  // namespace
}  // namespace bisc::host
