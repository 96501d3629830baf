#include "host/grep.h"

#include <algorithm>
#include <cstring>

#include "pm/pattern_matcher.h"
#include "runtime/module.h"
#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "util/lanes.h"

namespace bisc::host {

// ----- Host streaming scans -----

namespace {

/**
 * Shared skeleton of the host-side streaming scans (grep, word
 * count): stream the file off drive @p drive with OS readahead at a
 * 1 MiB window, charge the scanner's per-byte CPU once per window,
 * then hand each page of the window to @p chunk in place. Bytes and
 * elapsed ticks accumulate into the caller's result fields.
 */
template <class Chunk>
void
hostStreamScan(HostSystem &host, std::uint32_t drive,
               const std::string &path, Bytes &scanned,
               Tick &elapsed, const Chunk &chunk)
{
    const Tick t0 = host.kernel().now();
    const Bytes size = host.fsOf(drive).size(path);
    host.streamRead(
        drive, path, 0, size, 1_MiB,
        [&](Bytes, Bytes n, const StreamPages &pages) {
            host.consumeCpuPerByte(n,
                                   host.config().grep_ns_per_byte);
            pages.forEach([&](Bytes, const sim::BufferView &page) {
                chunk(page.data(), page.size());
            });
            scanned += n;
        });
    elapsed = host.kernel().now() - t0;
}

}  // namespace

GrepResult
grepConv(HostSystem &host, std::uint32_t drive, const std::string &path,
         const std::string &pattern)
{
    BISC_ASSERT(!pattern.empty(), "empty grep pattern");
    GrepResult result;
    const std::size_t overlap = pattern.size() - 1;

    // The last `overlap` bytes streamed so far, and the seam buffer:
    // those bytes followed by the head of the next chunk. Both keep
    // their capacity across chunks.
    std::vector<std::uint8_t> carry;
    std::vector<std::uint8_t> seam;
    hostStreamScan(
        host, drive, path, result.bytes_scanned, result.elapsed,
        [&](const std::uint8_t *data, Bytes n) {
            result.matches += pm::count(data, n, pattern);
            // Matches straddling the chunk boundary. Neither side of
            // the seam holds a whole match (each is shorter than the
            // pattern), so every hit in it spans the boundary.
            if (!carry.empty()) {
                seam.assign(carry.begin(), carry.end());
                seam.insert(seam.end(), data,
                            data + std::min<Bytes>(overlap, n));
                result.matches +=
                    pm::count(seam.data(), seam.size(), pattern);
            }
            carry.insert(carry.end(),
                         data + n - std::min<Bytes>(overlap, n),
                         data + n);
            if (carry.size() > overlap)
                carry.erase(carry.begin(),
                            carry.end() -
                                static_cast<std::ptrdiff_t>(overlap));
        });
    return result;
}

// ----- NDP grep SSDlet -----

namespace {

/**
 * Streams its file argument through the channel pattern matchers and
 * counts occurrences of the key; only the count leaves the SSD.
 */
class GrepLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<slet::File, std::string>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const std::string &pattern = arg<1>();
        pm::KeySet keys;
        bool ok = keys.addKey(pattern);
        BISC_ASSERT(ok, "pattern exceeds matcher limits: ", pattern);

        std::uint64_t total = 0;
        auto token = file.scanMatched(
            0, file.size(), keys,
            [&](Bytes, const std::uint8_t *, Bytes,
                const pm::MatchResult &m) {
                // The matcher IP reports hit positions; device
                // software only tallies them (a couple of
                // microseconds per hit on the R7 core).
                const std::uint64_t hits = m.count[0];
                consumeCpu(kUsec + 2 * kUsec * hits);
                total += hits;
            },
            /*counts=*/true);
        token.wait();
        out<0>().put(total);
    }
};

DeclareModule("grep", 73'912);
RegisterSSDLet("grep", "idGrep", GrepLet);

}  // namespace

void
installGrepModule(fs::FileSystem &fs)
{
    if (!fs.exists("/var/isc/slets/grep.slet")) {
        rt::ModuleRegistry::global().installModuleFile(
            fs, "/var/isc/slets/grep.slet", "grep");
    }
}

GrepResult
grepBiscuitResident(rt::Runtime &runtime, rt::ModuleId mid,
                    const std::string &path,
                    const std::string &pattern)
{
    auto &kernel = runtime.kernel();
    GrepResult result;
    Tick t0 = kernel.now();

    sisc::SSD ssd(runtime);
    sisc::Application app(ssd);
    sisc::SSDLet grep(app, mid, "idGrep",
                      std::make_tuple(slet::File(path), pattern));
    auto port = app.connectTo<std::uint64_t>(grep.out(0));
    app.start();
    std::uint64_t count = 0;
    while (port.get(count))
        result.matches += count;
    app.wait();

    result.bytes_scanned = runtime.fs().size(path);
    result.elapsed = kernel.now() - t0;
    return result;
}

GrepResult
grepBiscuit(rt::Runtime &runtime, const std::string &path,
            const std::string &pattern)
{
    auto &kernel = runtime.kernel();
    Tick t0 = kernel.now();

    sisc::SSD ssd(runtime);
    installGrepModule(runtime.fs());
    auto mid = ssd.loadModule(
        sisc::File(ssd, "/var/isc/slets/grep.slet"));
    GrepResult result = grepBiscuitResident(runtime, mid, path,
                                            pattern);
    ssd.unloadModule(mid);
    result.elapsed = kernel.now() - t0;  // include load/unload
    return result;
}

namespace {

/** 0xff in each lane holding ' ', '\n', '\t' or '\r', else 0. */
Lanes16
spaceLanes(Lanes16 v)
{
    return reinterpret_cast<Lanes16>((v == ' ') | (v == '\n') |
                                     (v == '\t') | (v == '\r'));
}

bool
isSpace(std::uint8_t c)
{
    return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

/** Sum of the lanes of a per-lane counter. */
std::uint64_t
sumLanes(Lanes16 v)
{
    std::uint8_t lane[16];
    std::memcpy(lane, &v, sizeof(lane));
    std::uint64_t sum = 0;
    for (std::uint8_t x : lane)
        sum += x;
    return sum;
}

}  // namespace

void
WordTally::scan(const std::uint8_t *data, std::size_t len)
{
    if (len == 0)
        return;
    // Byte 0 pairs with the carried state, every later byte with the
    // byte before it: a word starts where a non-space follows a space.
    if (!isSpace(data[0]) && !in_word)
        ++words;
    lines += data[0] == '\n';

    // Per-lane counters take one step per 16 bytes (a set lane is
    // 0xff, so subtracting it adds one) and are folded into the
    // totals before a lane can wrap.
    Lanes16 word_lanes{}, line_lanes{};
    unsigned steps = 0;
    std::size_t i = 1;
    for (; i + 16 <= len; i += 16) {
        const Lanes16 cur = load16(data + i);
        word_lanes -= ~spaceLanes(cur) & spaceLanes(load16(data + i - 1));
        line_lanes -= reinterpret_cast<Lanes16>(cur == '\n');
        if (++steps == 255) {
            words += sumLanes(word_lanes);
            lines += sumLanes(line_lanes);
            word_lanes = Lanes16{};
            line_lanes = Lanes16{};
            steps = 0;
        }
    }
    words += sumLanes(word_lanes);
    lines += sumLanes(line_lanes);
    for (; i < len; ++i) {
        words += !isSpace(data[i]) && isSpace(data[i - 1]);
        lines += data[i] == '\n';
    }
    in_word = !isSpace(data[len - 1]);
}

WordCountResult
wordCount(HostSystem &host, std::uint32_t drive,
          const std::string &path)
{
    WordCountResult result;
    WordTally tally;
    hostStreamScan(host, drive, path, result.bytes_scanned,
                   result.elapsed,
                   [&](const std::uint8_t *data, Bytes n) {
                       tally.scan(data, n);
                   });
    result.words = tally.words;
    result.lines = tally.lines;
    return result;
}

}  // namespace bisc::host
