/**
 * @file
 * Fault-injection campaign: the end-to-end reliability path under
 * seed-deterministic media faults (paper §II-B's "ill-behaving"
 * substrate conditions, §VI's inherited media management).
 *
 * The core invariant, checked across a matrix of seeds × fault types:
 * a read either succeeds byte-identical to what was written (possibly
 * after charged ECC retries and transparent remapping) or surfaces a
 * non-OK Status — never silently returns corrupt bytes. The campaign
 * drives the full stack: NAND fault model, FTL bad-block remap, file
 * system status aggregation, and SSDlet-level File reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fs/file_system.h"
#include "ftl/ftl.h"
#include "nand/nand.h"
#include "runtime/module.h"
#include "sim/kernel.h"
#include "sim/stats.h"
#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "util/common.h"
#include "util/rng.h"
#include "util/status.h"

namespace bisc {
namespace {

constexpr Bytes kPage = 2_KiB;
constexpr char kMarker[] = "PAGEMARK";

/** Small device: 2 dies x 32 blocks x 8 pages of 2 KiB (512 pages). */
ssd::SsdConfig
smallConfig()
{
    ssd::SsdConfig c;
    c.geometry.channels = 2;
    c.geometry.ways_per_channel = 1;
    c.geometry.pages_per_block = 8;
    c.geometry.page_size = kPage;
    c.geometry.blocks_per_die = 32;
    // Extra over-provisioning: fault campaigns retire blocks, which
    // permanently shrinks the physical pool.
    c.ftl_params.overprovision = 0.25;
    return c;
}

/**
 * Deterministic page contents: a fixed marker (so the pattern-matcher
 * tests can key on every page) followed by seeded pseudo-random bytes
 * that change with each overwrite version.
 */
void
fillPage(std::vector<std::uint8_t> &buf, std::uint64_t seed,
         std::uint64_t page, std::uint32_t version)
{
    Rng r(seed * 1000003 + page * 131 + version);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(r.next());
    std::copy(kMarker, kMarker + sizeof(kMarker) - 1, buf.begin());
}

enum class Scenario {
    kBitErrors,
    kProgramFail,
    kEraseFail,
    kDieStall,
    kUncorrectableStorm,
};

const char *
scenarioName(Scenario s)
{
    switch (s) {
    case Scenario::kBitErrors:
        return "bit-errors";
    case Scenario::kProgramFail:
        return "program-fail";
    case Scenario::kEraseFail:
        return "erase-fail";
    case Scenario::kDieStall:
        return "die-stall";
    case Scenario::kUncorrectableStorm:
        return "uncorrectable-storm";
    }
    return "?";
}

ssd::SsdConfig
scenarioConfig(Scenario s, std::uint64_t seed)
{
    ssd::SsdConfig c = smallConfig();
    c.fault.enabled = true;
    c.fault.seed = seed;
    switch (s) {
    case Scenario::kBitErrors:
        // ~29.5 expected raw errors per 2 KiB sense against a 24-bit
        // budget: nearly every read needs one retry, which corrects
        // (retry BER scale 0.3 -> ~8.8 errors).
        c.fault.raw_ber = 1.8e-3;
        c.ecc.correctable_bits = 24;
        c.ecc.max_read_retries = 3;
        c.ecc.retry_ber_scale = 0.3;
        break;
    case Scenario::kProgramFail:
        c.fault.program_fail_prob = 0.01;
        break;
    case Scenario::kEraseFail:
        c.fault.erase_fail_prob = 0.15;
        break;
    case Scenario::kDieStall:
        c.fault.die_stall_prob = 0.1;
        c.fault.channel_stall_prob = 0.05;
        break;
    case Scenario::kUncorrectableStorm:
        // Every sense drowns the code: every read must error out.
        c.fault.raw_ber = 0.05;
        c.ecc.correctable_bits = 24;
        c.ecc.max_read_retries = 2;
        break;
    }
    return c;
}

struct CampaignResult
{
    std::uint64_t ok_reads = 0;
    std::uint64_t err_reads = 0;
    std::uint64_t silent_corruptions = 0;
    std::uint64_t undamaged_errors = 0;
    std::uint64_t read_retries = 0;
    std::uint64_t ecc_corrected = 0;
    std::uint64_t uncorrectable = 0;
    std::uint64_t program_fails = 0;
    std::uint64_t erase_fails = 0;
    std::uint64_t die_stalls = 0;
    std::uint64_t blocks_retired = 0;
};

/**
 * One campaign run: write a file, churn overwrites until the
 * scenario's fault type has been observed (bounded), then read back
 * every page through the file system and classify each read.
 */
CampaignResult
runCampaign(Scenario s, std::uint64_t seed)
{
    const ssd::SsdConfig cfg = scenarioConfig(s, seed);
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, cfg);
    fs::FileSystem fsys(dev);

    const std::uint64_t pages = 48;
    fsys.create("/campaign");
    std::vector<std::vector<std::uint8_t>> ref(
        pages, std::vector<std::uint8_t>(kPage));
    std::vector<std::uint32_t> version(pages, 0);
    for (std::uint64_t p = 0; p < pages; ++p) {
        fillPage(ref[p], seed, p, 0);
        fsys.write("/campaign", p * kPage, ref[p].data(), kPage);
    }

    // Churn overwrites (full pages: out-of-place writes that force
    // GC) until the injected fault type has actually fired, so every
    // seed exercises its scenario rather than hoping.
    auto fired = [&] {
        switch (s) {
        case Scenario::kBitErrors:
            return dev.nand().readRetries() > 0;
        case Scenario::kProgramFail:
            return dev.nand().programFails() > 0;
        case Scenario::kEraseFail:
            return dev.nand().eraseFails() > 0;
        case Scenario::kDieStall:
            return dev.nand().dieStalls() > 0;
        case Scenario::kUncorrectableStorm:
            return true;
        }
        return true;
    };
    Rng churn(seed ^ 0xc0ffee);
    std::vector<std::uint8_t> buf(kPage);
    for (int step = 0; step < 4000 && !(step >= 200 && fired());
         ++step) {
        std::uint64_t p = churn.below(pages);
        fillPage(ref[p], seed, p, ++version[p]);
        fsys.write("/campaign", p * kPage, ref[p].data(), kPage);
        if (s == Scenario::kDieStall || s == Scenario::kBitErrors) {
            // Stalls and bit errors are read-side events.
            std::uint64_t q = churn.below(pages);
            fs::ReadResult rr =
                fsys.read("/campaign", q * kPage, kPage, buf.data());
            if (rr.status.ok()) {
                EXPECT_EQ(buf, ref[q]) << "churn read of page " << q;
            }
        }
    }

    // Final verification sweep: the core no-silent-corruption check.
    CampaignResult r;
    for (std::uint64_t p = 0; p < pages; ++p) {
        std::fill(buf.begin(), buf.end(), 0);
        fs::ReadResult rr =
            fsys.read("/campaign", p * kPage, kPage, buf.data());
        if (rr.status.ok()) {
            ++r.ok_reads;
            if (buf != ref[p])
                ++r.silent_corruptions;
        } else {
            ++r.err_reads;
            // An uncorrectable read must hand back damaged bytes, so
            // layers that drop the status fail checksums loudly.
            if (buf == ref[p])
                ++r.undamaged_errors;
        }
    }

    std::string why;
    EXPECT_TRUE(dev.ftl().auditMapping(&why))
        << scenarioName(s) << " seed " << seed << ": " << why;

    r.read_retries = dev.nand().readRetries();
    r.ecc_corrected = dev.nand().eccCorrectedPages();
    r.uncorrectable = dev.nand().uncorrectableReads();
    r.program_fails = dev.nand().programFails();
    r.erase_fails = dev.nand().eraseFails();
    r.die_stalls = dev.nand().dieStalls();
    r.blocks_retired = dev.ftl().blocksRetired();
    return r;
}

class FaultMatrix : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FaultMatrix, NoSilentCorruptionAcrossFaultTypes)
{
    const std::uint64_t seed = seedFromEnv(GetParam());
    for (Scenario s :
         {Scenario::kBitErrors, Scenario::kProgramFail,
          Scenario::kEraseFail, Scenario::kDieStall,
          Scenario::kUncorrectableStorm}) {
        SCOPED_TRACE(std::string(scenarioName(s)) + " seed " +
                     std::to_string(seed));
        CampaignResult r = runCampaign(s, seed);

        // The one invariant that must hold everywhere.
        EXPECT_EQ(r.silent_corruptions, 0u);
        EXPECT_EQ(r.undamaged_errors, 0u);
        EXPECT_EQ(r.ok_reads + r.err_reads, 48u);

        switch (s) {
        case Scenario::kBitErrors:
            // Reads recover through charged retries.
            EXPECT_GT(r.read_retries, 0u);
            EXPECT_GT(r.ecc_corrected, 0u);
            break;
        case Scenario::kProgramFail:
            // Writes transparently remap; data fully intact.
            EXPECT_GT(r.program_fails, 0u);
            EXPECT_GT(r.blocks_retired, 0u);
            EXPECT_EQ(r.err_reads, 0u);
            break;
        case Scenario::kEraseFail:
            EXPECT_GT(r.erase_fails, 0u);
            EXPECT_GT(r.blocks_retired, 0u);
            EXPECT_EQ(r.err_reads, 0u);
            break;
        case Scenario::kDieStall:
            // Latency-only events: all data clean.
            EXPECT_GT(r.die_stalls, 0u);
            EXPECT_EQ(r.err_reads, 0u);
            break;
        case Scenario::kUncorrectableStorm:
            // Every read must surface the typed error.
            EXPECT_EQ(r.ok_reads, 0u);
            EXPECT_EQ(r.err_reads, 48u);
            EXPECT_GT(r.uncorrectable, 0u);
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultMatrix,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(FaultCampaign, ReplaysBitIdenticallyFromItsSeed)
{
    CampaignResult a = runCampaign(Scenario::kBitErrors, 5);
    CampaignResult b = runCampaign(Scenario::kBitErrors, 5);
    EXPECT_EQ(a.read_retries, b.read_retries);
    EXPECT_EQ(a.ecc_corrected, b.ecc_corrected);
    EXPECT_EQ(a.uncorrectable, b.uncorrectable);
    EXPECT_EQ(a.ok_reads, b.ok_reads);
    EXPECT_EQ(a.err_reads, b.err_reads);
}

// ----- Focused unit checks on the recovery ladder -----

TEST(FaultUnit, UncorrectableReadSurfacesTypedErrorWithExactRetries)
{
    ssd::SsdConfig cfg = smallConfig();
    cfg.fault.enabled = true;
    cfg.fault.seed = 3;
    cfg.fault.raw_ber = 0.5;  // every sense drowns the ECC
    cfg.ecc.correctable_bits = 24;
    cfg.ecc.max_read_retries = 4;

    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, cfg);
    fs::FileSystem fsys(dev);

    std::vector<std::uint8_t> data(kPage);
    fillPage(data, 1, 0, 0);
    fsys.create("/f");
    fsys.write("/f", 0, data.data(), kPage);

    sim::Stats st;
    dev.exportStats(st);
    st.snapshot("before");

    std::vector<std::uint8_t> out(kPage, 0);
    fs::ReadResult r = fsys.read("/f", 0, kPage, out.data());
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), ErrCode::kUncorrectable);
    EXPECT_EQ(r.retries, 4u);  // exhausted exactly max_read_retries
    EXPECT_NE(out, data);      // damaged bytes, not the real data

    // The retry charge is visible in Stats, without counter bleed.
    dev.exportStats(st);
    auto delta = st.snapshotDelta("before");
    EXPECT_EQ(delta["nand.read_retries"], 4.0);
    EXPECT_EQ(delta["nand.uncorrectable_reads"], 1.0);
    EXPECT_EQ(delta["ftl.uncorrectable_reads"], 1.0);
    EXPECT_EQ(delta.count("nand.ecc_corrected_pages"), 0u);
}

TEST(FaultUnit, RecoveredReadIsByteIdenticalAndChargesOneRetry)
{
    ssd::SsdConfig cfg = smallConfig();
    cfg.fault.enabled = true;
    cfg.fault.seed = 9;
    // First sense ~32.8 errors >> 12 budget; retry at 0.1 scale
    // (~3.3 errors) decodes. Exactly one retry per read.
    cfg.fault.raw_ber = 2e-3;
    cfg.ecc.correctable_bits = 12;
    cfg.ecc.max_read_retries = 4;
    cfg.ecc.retry_ber_scale = 0.1;

    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, cfg);
    fs::FileSystem fsys(dev);

    std::vector<std::uint8_t> data(kPage);
    fillPage(data, 2, 0, 0);
    fsys.create("/f");
    fsys.write("/f", 0, data.data(), kPage);

    sim::Stats st;
    dev.exportStats(st);
    st.snapshot("before");

    std::vector<std::uint8_t> out(kPage, 0);
    fs::ReadResult r = fsys.read("/f", 0, kPage, out.data());
    EXPECT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_EQ(r.retries, 1u);
    EXPECT_EQ(out, data);

    dev.exportStats(st);
    auto delta = st.snapshotDelta("before");
    EXPECT_EQ(delta["nand.read_retries"], 1.0);
    EXPECT_EQ(delta["nand.ecc_corrected_pages"], 1.0);
    EXPECT_EQ(delta.count("nand.uncorrectable_reads"), 0u);
}

TEST(FaultUnit, DieStallChargesExactlyItsLatency)
{
    auto readDone = [](bool stall) {
        ssd::SsdConfig cfg = smallConfig();
        cfg.fault.enabled = stall;
        cfg.fault.seed = 4;
        cfg.fault.die_stall_prob = stall ? 1.0 : 0.0;
        sim::Kernel kernel;
        ssd::SsdDevice dev(kernel, cfg);
        fs::FileSystem fsys(dev);
        std::vector<std::uint8_t> data(kPage, 0x42);
        fsys.create("/f");
        fsys.populate("/f", data.data(), kPage);
        fs::ReadResult r = fsys.read("/f", 0, kPage, data.data());
        EXPECT_TRUE(r.status.ok());
        return r.done;
    };
    Tick clean = readDone(false);
    Tick stalled = readDone(true);
    EXPECT_EQ(stalled, clean + smallConfig().fault.die_stall_ticks);
}

TEST(FaultUnit, ChannelStallChargesExactlyItsLatency)
{
    auto readDone = [](bool stall) {
        ssd::SsdConfig cfg = smallConfig();
        cfg.fault.enabled = stall;
        cfg.fault.seed = 4;
        cfg.fault.channel_stall_prob = stall ? 1.0 : 0.0;
        sim::Kernel kernel;
        ssd::SsdDevice dev(kernel, cfg);
        fs::FileSystem fsys(dev);
        std::vector<std::uint8_t> data(kPage, 0x42);
        fsys.create("/f");
        fsys.populate("/f", data.data(), kPage);
        fs::ReadResult r = fsys.read("/f", 0, kPage, data.data());
        EXPECT_TRUE(r.status.ok());
        return r.done;
    };
    Tick clean = readDone(false);
    Tick stalled = readDone(true);
    EXPECT_EQ(stalled, clean + smallConfig().fault.channel_stall_ticks);
}

TEST(FaultUnit, DisabledFaultModelIsInert)
{
    // Same workload on an ideal device and on a device whose fault
    // model is constructed but disabled: identical ticks, identical
    // bytes, zero reliability counters. This is the bit-identical
    // guarantee the default-config benches rely on.
    auto run = [](bool construct_faults) {
        ssd::SsdConfig cfg = smallConfig();
        cfg.fault.enabled = false;
        if (construct_faults) {
            cfg.fault.seed = 1234;
            cfg.fault.raw_ber = 0.5;  // would storm if enabled
            cfg.fault.program_fail_prob = 0.5;
        }
        sim::Kernel kernel;
        ssd::SsdDevice dev(kernel, cfg);
        fs::FileSystem fsys(dev);
        fsys.create("/f");
        std::vector<std::uint8_t> data(kPage);
        Tick last = 0;
        for (std::uint64_t p = 0; p < 24; ++p) {
            fillPage(data, 7, p, 0);
            last = fsys.write("/f", p * kPage, data.data(), kPage);
        }
        fs::ReadResult r = fsys.read("/f", 0, 24 * kPage, nullptr);
        EXPECT_EQ(dev.nand().readRetries(), 0u);
        EXPECT_EQ(dev.nand().uncorrectableReads(), 0u);
        EXPECT_EQ(r.retries, 0u);
        EXPECT_TRUE(r.status.ok());
        return std::make_pair(last, r.done);
    };
    EXPECT_EQ(run(false), run(true));
}

// ----- SSDlet-level: the device-side File status surface -----

/**
 * Re-derives every page's expected contents (replaying the churn
 * schedule from its seed) and verifies each page it can read: OK
 * pages must match exactly; error pages are counted. Emits
 * (ok, err, mismatch) on its output port.
 */
class VerifyLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<slet::File, std::uint64_t,
                                    std::uint64_t, std::uint64_t>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const std::uint64_t seed = arg<1>();
        const std::uint64_t churn_steps = arg<2>();
        const std::uint64_t pages = arg<3>();

        // Replay the host's churn schedule to learn final versions.
        std::vector<std::uint32_t> version(pages, 0);
        Rng churn(seed ^ 0xbeef);
        for (std::uint64_t m = 0; m < churn_steps; ++m)
            ++version[churn.below(pages)];

        std::vector<std::uint8_t> buf(kPage), want(kPage);
        std::uint64_t ok = 0, err = 0, mismatch = 0;
        for (std::uint64_t p = 0; p < pages; ++p) {
            Status st;
            file.read(p * kPage, buf.data(), kPage, st);
            if (!st.ok()) {
                ++err;
                continue;
            }
            fillPage(want, seed, p, version[p]);
            if (buf == want)
                ++ok;
            else
                ++mismatch;
        }
        out<0>().put(ok);
        out<0>().put(err);
        out<0>().put(mismatch);
    }
};

/**
 * Streams the file through the channel matchers keyed on the marker
 * every page carries; emits (pages matched, token status ok?). Pages
 * whose stream was uncorrectable are suppressed, so the match count
 * drops below the page count exactly when the token reports an error.
 */
class ScanLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<slet::File>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        pm::KeySet keys;
        keys.addKey(kMarker);
        std::uint64_t matched = 0;
        auto token = file.scanMatched(
            0, file.size(), keys,
            [&](Bytes, const std::uint8_t *, Bytes,
                const pm::MatchResult &) {
                ++matched;
            });
        token.wait();
        out<0>().put(matched);
        out<0>().put(token.status().ok() ? 1 : 0);
    }
};

/** Uses the panicking 3-arg read; must die on worn media. */
class LegacyLet
    : public slet::SSDLet<slet::In<>, slet::Out<>,
                          slet::Arg<slet::File>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        std::vector<std::uint8_t> buf(kPage);
        for (Bytes off = 0; off < file.size(); off += kPage)
            file.read(off, buf.data(), kPage);
    }
};

DeclareModule("faultver", 90'560);
RegisterSSDLet("faultver", "idVerify", VerifyLet);
RegisterSSDLet("faultver", "idScan", ScanLet);
RegisterSSDLet("faultver", "idLegacy", LegacyLet);

constexpr std::uint64_t kSletPages = 48;
constexpr std::uint64_t kSletChurn = 600;
constexpr std::uint64_t kSletSeed = 4242;

/**
 * Worn-media config: fresh blocks decode cleanly (module load works),
 * but the BER grows so fast with P/E count that pages rewritten onto
 * recycled blocks go uncorrectable. The churn pushes the data file
 * onto worn blocks while the module file stays on pristine ones.
 */
ssd::SsdConfig
wornConfig()
{
    ssd::SsdConfig cfg = smallConfig();
    cfg.fault.enabled = true;
    cfg.fault.seed = 77;
    cfg.fault.raw_ber = 2e-4;       // ~3.3 errors at P/E 0: clean
    cfg.fault.ber_pe_growth = 20.0; // ~69 errors at P/E 1: hopeless
    cfg.ecc.correctable_bits = 24;
    cfg.ecc.max_read_retries = 2;
    cfg.ecc.retry_ber_scale = 0.5;
    return cfg;
}

/** Populate + churn the data file exactly as VerifyLet replays it. */
void
setupSletData(sisc::Env &env)
{
    std::vector<std::uint8_t> all(kSletPages * kPage);
    for (std::uint64_t p = 0; p < kSletPages; ++p) {
        std::vector<std::uint8_t> page(kPage);
        fillPage(page, kSletSeed, p, 0);
        std::copy(page.begin(), page.end(),
                  all.begin() + p * kPage);
    }
    env.fs.populate("/data", all.data(), all.size());

    std::vector<std::uint32_t> version(kSletPages, 0);
    Rng churn(kSletSeed ^ 0xbeef);
    std::vector<std::uint8_t> page(kPage);
    for (std::uint64_t m = 0; m < kSletChurn; ++m) {
        std::uint64_t p = churn.below(kSletPages);
        fillPage(page, kSletSeed, p, ++version[p]);
        env.fs.write("/data", p * kPage, page.data(), kPage);
    }
}

TEST(FaultSlet, StatusReadSurvivesWornMediaWithoutSilentCorruption)
{
    sisc::Env env(wornConfig());
    env.installModule("/fv.slet", "faultver");
    setupSletData(env);

    std::uint64_t ok = 0, err = 0, mismatch = 0;
    std::uint64_t matched = 0, scan_ok = 1;
    env.run([&] {
        sisc::SSD ssd(env.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/fv.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet verify(
            app, mid, "idVerify",
            std::make_tuple(slet::File("/data"), kSletSeed,
                            kSletChurn, kSletPages));
        sisc::SSDLet scan(app, mid, "idScan",
                          std::make_tuple(slet::File("/data")));
        auto vp = app.connectTo<std::uint64_t>(verify.out(0));
        auto sp = app.connectTo<std::uint64_t>(scan.out(0));
        app.start();
        vp.get(ok);
        vp.get(err);
        vp.get(mismatch);
        sp.get(matched);
        sp.get(scan_ok);
        app.wait();
    });

    // Every page is either readable-and-exact or a typed error.
    EXPECT_EQ(ok + err, kSletPages);
    EXPECT_EQ(mismatch, 0u);
    EXPECT_GT(err, 0u);  // the churn wore blocks into failure
    EXPECT_GT(ok, 0u);   // fresh blocks still decode

    // scanMatched suppressed exactly the unreadable pages and
    // surfaced the error on the completion token.
    EXPECT_EQ(scan_ok, 0u);
    EXPECT_LT(matched, kSletPages);
    EXPECT_GT(matched, 0u);
}

TEST(FaultSlet, CleanMediaVerifiesEveryPageAndMatchesEveryPage)
{
    sisc::Env env(smallConfig());  // faults disabled
    env.installModule("/fv.slet", "faultver");
    setupSletData(env);

    std::uint64_t ok = 0, err = 1, mismatch = 1;
    std::uint64_t matched = 0, scan_ok = 0;
    env.run([&] {
        sisc::SSD ssd(env.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/fv.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet verify(
            app, mid, "idVerify",
            std::make_tuple(slet::File("/data"), kSletSeed,
                            kSletChurn, kSletPages));
        sisc::SSDLet scan(app, mid, "idScan",
                          std::make_tuple(slet::File("/data")));
        auto vp = app.connectTo<std::uint64_t>(verify.out(0));
        auto sp = app.connectTo<std::uint64_t>(scan.out(0));
        app.start();
        vp.get(ok);
        vp.get(err);
        vp.get(mismatch);
        sp.get(matched);
        sp.get(scan_ok);
        app.wait();
    });
    EXPECT_EQ(ok, kSletPages);
    EXPECT_EQ(err, 0u);
    EXPECT_EQ(mismatch, 0u);
    EXPECT_EQ(matched, kSletPages);
    EXPECT_EQ(scan_ok, 1u);
}

TEST(FaultDeath, SletLegacyReadDiesOnWornMedia)
{
    EXPECT_DEATH(
        {
            sisc::Env env(wornConfig());
            env.installModule("/fv.slet", "faultver");
            setupSletData(env);
            env.run([&] {
                sisc::SSD ssd(env.runtime);
                auto mid =
                    ssd.loadModule(sisc::File(ssd, "/fv.slet"));
                sisc::Application app(ssd);
                sisc::SSDLet legacy(
                    app, mid, "idLegacy",
                    std::make_tuple(slet::File("/data")));
                app.start();
                app.wait();
            });
        },
        "unhandled media error reading");
}

TEST(FaultDeath, ModuleLoadDiesOnUnrecoverableMedia)
{
    EXPECT_DEATH(
        {
            // Storm: nothing decodes, even the module image.
            ssd::SsdConfig cfg =
                scenarioConfig(Scenario::kUncorrectableStorm, 8);
            sisc::Env env(cfg);
            env.installModule("/fv.slet", "faultver");
            env.run([&] {
                sisc::SSD ssd(env.runtime);
                ssd.loadModule(sisc::File(ssd, "/fv.slet"));
            });
        },
        "unrecoverable media error");
}

}  // namespace
}  // namespace bisc
