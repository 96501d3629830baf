/**
 * @file
 * Substrate ablation: the FTL under sustained random overwrites.
 *
 * Biscuit deliberately rides the SSD's existing firmware ("all I/O
 * requests issued by Biscuit go through the same I/O paths ... the
 * underlying SSD firmware takes care of media management tasks such
 * as wear leveling and garbage collection", paper §VI). This bench
 * characterizes that substrate: write amplification and wear spread
 * versus over-provisioning, and how garbage collection inflates the
 * latency of foreground writes — the background behaviours any NDP
 * framework inherits.
 */

#include <cstdio>
#include <vector>

#include "ftl/ftl.h"
#include "nand/nand.h"
#include "sim/kernel.h"
#include "util/common.h"
#include "util/rng.h"

namespace {

using namespace bisc;

struct RunResult
{
    double write_amp;
    std::uint64_t gc_runs;
    std::uint64_t wear_spread;
    std::uint64_t max_erase;
    double avg_write_us;
    double max_write_us;
};

RunResult
hammer(double overprovision, std::uint64_t seed)
{
    nand::Geometry geo;
    geo.channels = 4;
    geo.ways_per_channel = 2;
    geo.pages_per_block = 16;
    geo.page_size = 4_KiB;
    geo.blocks_per_die = 32;

    sim::Kernel kernel;
    nand::NandFlash nand(kernel, geo, nand::NandTiming{});
    ftl::FtlParams params;
    params.overprovision = overprovision;
    ftl::Ftl ftl(kernel, nand, params);

    Rng rng(seed);
    const ftl::Lpn space = ftl.logicalPages() * 9 / 10;
    std::vector<std::uint8_t> page(geo.page_size, 0x77);

    // Fill once, then hammer random overwrites for 4x the space.
    Tick done = 0;
    std::uint64_t host_writes = 0;
    double sum_us = 0, max_us = 0;
    kernel.spawn("writer", [&] {
        for (ftl::Lpn l = 0; l < space; ++l) {
            done = ftl.write(l, page.data(), page.size());
            ++host_writes;
        }
        for (std::uint64_t i = 0; i < 4 * space; ++i) {
            Tick t0 = kernel.now();
            done = ftl.write(rng.below(space), page.data(),
                             page.size());
            sim::Kernel::current().sleepUntil(done);
            double us = toMicros(kernel.now() - t0);
            sum_us += us;
            max_us = std::max(max_us, us);
            ++host_writes;
        }
    });
    kernel.run();

    RunResult r;
    r.write_amp = static_cast<double>(nand.pageWrites()) /
                  static_cast<double>(host_writes);
    r.gc_runs = ftl.gcRuns();
    r.wear_spread = ftl.wearSpread();
    std::uint64_t max_e = 0;
    for (nand::Pbn b = 0; b < geo.totalBlocks(); ++b)
        max_e = std::max(max_e, nand.eraseCount(b));
    r.max_erase = max_e;
    r.avg_write_us = sum_us / static_cast<double>(4 * space);
    r.max_write_us = max_us;
    return r;
}

struct RelResult
{
    double retries_per_read;
    double avg_read_us;
    std::uint64_t uncorrectable;
    std::uint64_t relocations;
    std::uint64_t remaps;
    std::uint64_t retired;
};

/**
 * Fill, age with one space of overwrites, then read everything back
 * under fault injection: measures what ECC retries and bad-block
 * remaps cost the foreground datapath.
 */
RelResult
reliability(double raw_ber, Tick retry_cost, double program_fail,
            std::uint64_t seed)
{
    nand::Geometry geo;
    geo.channels = 4;
    geo.ways_per_channel = 2;
    geo.pages_per_block = 16;
    geo.page_size = 4_KiB;
    geo.blocks_per_die = 32;

    nand::FaultConfig fc;
    fc.enabled = true;
    fc.seed = seed;
    fc.raw_ber = raw_ber;
    fc.ber_pe_growth = 0.02;
    fc.program_fail_prob = program_fail;
    nand::EccConfig ecc;
    ecc.correctable_bits = 40;  // ~32.8 expected raw errors at 1e-3
    ecc.read_retry_ticks = retry_cost;

    sim::Kernel kernel;
    nand::NandFlash nand(kernel, geo, nand::NandTiming{}, fc, ecc);
    ftl::FtlParams params;
    params.overprovision = 0.12;
    ftl::Ftl ftl(kernel, nand, params);

    Rng rng(seed);
    const ftl::Lpn space = ftl.logicalPages() * 3 / 4;
    std::vector<std::uint8_t> page(geo.page_size, 0x5A);
    std::vector<std::uint8_t> out(geo.page_size);

    double sum_us = 0;
    std::uint64_t reads = 0, retries = 0, uncorrectable = 0;
    kernel.spawn("rel", [&] {
        for (ftl::Lpn l = 0; l < space; ++l) {
            Tick done = ftl.write(l, page.data(), page.size());
            sim::Kernel::current().sleepUntil(done);
        }
        // Age the blocks so wear growth shows up in the read pass.
        for (std::uint64_t i = 0; i < space; ++i) {
            Tick done = ftl.write(rng.below(space), page.data(),
                                  page.size());
            sim::Kernel::current().sleepUntil(done);
        }
        for (ftl::Lpn l = 0; l < space; ++l) {
            Tick t0 = kernel.now();
            auto r = ftl.read(l, 0, page.size(), out.data());
            sim::Kernel::current().sleepUntil(r.done);
            sum_us += toMicros(kernel.now() - t0);
            retries += r.retries;
            uncorrectable += !r.status.ok();
            ++reads;
        }
    });
    kernel.run();

    RelResult r;
    r.retries_per_read =
        static_cast<double>(retries) / static_cast<double>(reads);
    r.avg_read_us = sum_us / static_cast<double>(reads);
    r.uncorrectable = uncorrectable;
    r.relocations = ftl.retryRelocations();
    r.remaps = ftl.programFailRemaps();
    r.retired = ftl.blocksRetired();
    return r;
}

}  // namespace

int
main()
{
    std::printf("FTL substrate under 4x-capacity random overwrite "
                "churn\n\n");
    std::printf("%6s %10s %8s %12s %10s %12s %12s\n", "OP", "write",
                "GC", "wear", "max", "avg write", "max write");
    std::printf("%6s %10s %8s %12s %10s %12s %12s\n", "", "amp",
                "runs", "spread", "erases", "(us)", "(us)");
    std::uint64_t seed = seedFromEnv(99);
    for (double op : {0.07, 0.12, 0.20, 0.28}) {
        auto r = hammer(op, seed);
        std::printf("%5.0f%% %10.2f %8llu %12llu %10llu %12.1f "
                    "%12.1f\n",
                    op * 100, r.write_amp,
                    static_cast<unsigned long long>(r.gc_runs),
                    static_cast<unsigned long long>(r.wear_spread),
                    static_cast<unsigned long long>(r.max_erase),
                    r.avg_write_us, r.max_write_us);
    }
    std::printf("\nexpected shape: more over-provisioning -> lower "
                "write amplification and fewer GC stalls; the greedy "
                "victim policy keeps wear spread small relative to "
                "max erases.\n");

    std::printf("\nreliability sweep: read-retry cost under raw bit "
                "errors (BER 2e-3, ECC 40 bits/page)\n\n");
    std::printf("%12s %14s %12s %8s %8s\n", "retry (us)",
                "retries/read", "avg read", "uncorr", "relocs");
    std::printf("%12s %14s %12s %8s %8s\n", "", "", "(us)", "", "");
    for (Tick cost : {Tick(0), 40 * kUsec, 80 * kUsec, 160 * kUsec}) {
        auto r = reliability(2e-3, cost, 0.0, seed);
        std::printf("%12.0f %14.3f %12.1f %8llu %8llu\n",
                    toMicros(cost), r.retries_per_read, r.avg_read_us,
                    static_cast<unsigned long long>(r.uncorrectable),
                    static_cast<unsigned long long>(r.relocations));
    }

    std::printf("\nreliability sweep: bad-block remap cost under "
                "program failures (retry cost 80 us)\n\n");
    std::printf("%12s %10s %10s %12s %12s\n", "P(fail)", "remaps",
                "retired", "avg read", "uncorr");
    std::printf("%12s %10s %10s %12s %12s\n", "", "", "", "(us)", "");
    // Each program failure retires a whole block, so the sweep stays
    // below the rate that would eat the device's spare capacity.
    for (double pf : {0.0, 1e-3, 2e-3, 5e-3}) {
        auto r = reliability(1e-3, 80 * kUsec, pf, seed);
        std::printf("%12.4f %10llu %10llu %12.1f %12llu\n", pf,
                    static_cast<unsigned long long>(r.remaps),
                    static_cast<unsigned long long>(r.retired),
                    r.avg_read_us,
                    static_cast<unsigned long long>(r.uncorrectable));
    }

    std::printf("\nexpected shape: read latency grows linearly with "
                "the per-retry charge; program failures cost remap "
                "work and retired blocks but stay invisible to reads "
                "until over-provisioning is exhausted.\n");
    return 0;
}
