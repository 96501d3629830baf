/**
 * @file
 * Reproduces paper Fig. 10: relative performance (speed-up) and I/O
 * reduction of all 22 TPC-H queries on MiniDB, Conv vs. Biscuit, plus
 * the headline aggregates: geometric-mean speed-up of the NDP
 * queries, top-five average, and total suite execution time ratio.
 *
 * Paper: 14 queries at 1.0x (8 never attempt NDP, 6 rejected by
 * sampling), 8 offloaded with geomean 6.1x, top five averaging 15.4x
 * (Q14 reaching 166.8x with a 315.4x I/O reduction), and a 3.6x total
 * suite-time reduction.
 *
 * BISCUIT_LANES=N (N > 1) runs the 44 (query, mode) simulations as
 * parallel lanes forked from a frozen device image; the transcript is
 * bit-identical to the serial run (see src/tpch/suite.h).
 *
 * BISCUIT_OP_BREAKDOWN=1 additionally prints a per-operator sim-time
 * table to stderr (stdout stays byte-identical to the golden).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "db/minidb.h"
#include "host/host_system.h"
#include "host/lane_runner.h"
#include "sisc/env.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/suite.h"
#include "util/common.h"

namespace {

/** Suite-level aggregates, computed once from the merged runs. */
struct SuiteTotals
{
    double total_conv = 0;
    double total_bisc = 0;
    double geomean = 1.0;
    double top5_avg = 0.0;
    int ndp_count = 0;
};

SuiteTotals
aggregate(const std::vector<bisc::tpch::QueryRun> &runs)
{
    SuiteTotals t;
    double ndp_log_sum = 0;
    std::vector<double> ndp_speedups;
    for (const auto &r : runs) {
        t.total_conv += bisc::toSeconds(r.conv.elapsed);
        t.total_bisc += bisc::toSeconds(r.biscuit.elapsed);
        if (r.biscuit.ndp_used) {
            ndp_log_sum += std::log(r.speedup());
            ++t.ndp_count;
            ndp_speedups.push_back(r.speedup());
        }
    }
    if (t.ndp_count > 0)
        t.geomean = std::exp(ndp_log_sum / t.ndp_count);
    std::sort(ndp_speedups.rbegin(), ndp_speedups.rend());
    int top_n = std::min<std::size_t>(5, ndp_speedups.size());
    double top5 = 0;
    for (int i = 0; i < top_n; ++i)
        top5 += ndp_speedups[i];
    t.top5_avg = top_n ? top5 / top_n : 0.0;
    return t;
}

/**
 * Per-operator sim-time breakdown (DbStats::op_ticks), one row per
 * (query, mode) plus mode totals. Written to stderr so the golden
 * stdout transcript is untouched. Operators that overlap (an NDP
 * scan's device work under the host drain) are charged wall-to-wall,
 * so a row can exceed the query's elapsed time in aggregate.
 */
void
printOpBreakdown(const std::vector<bisc::tpch::QueryRun> &runs)
{
    using bisc::Tick;
    static const char *const ops[] = {"conv_scan",   "ndp_scan",
                                      "placed_scan", "sample",
                                      "bnl_join",    "group_by",
                                      "filter"};
    std::fprintf(stderr,
                 "\nper-operator sim time (ms; wall-to-wall, "
                 "overlapping ops double-charge)\n");
    std::fprintf(stderr, "%-5s %-8s", "query", "mode");
    for (const char *op : ops)
        std::fprintf(stderr, " %10s", op);
    std::fprintf(stderr, " %-14s %8s %8s\n", "placement", "est_sel",
                 "meas_sel");

    // Selectivity column: percent, or "-" when the path never ran
    // (est_sel needs histogram planning, meas_sel needs a scan).
    auto sel = [](double v) {
        static thread_local char buf[16];
        if (v < 0.0)
            return "       -";
        std::snprintf(buf, sizeof(buf), "%7.1f%%", v * 100.0);
        return static_cast<const char *>(buf);
    };

    std::map<std::string, Tick> totals[2];
    for (const auto &r : runs) {
        const bisc::tpch::QueryOutcome *qo[2] = {&r.conv, &r.biscuit};
        static const char *const mode[2] = {"conv", "biscuit"};
        for (int m = 0; m < 2; ++m) {
            std::fprintf(stderr, "Q%-4d %-8s", r.number, mode[m]);
            for (const char *op : ops) {
                auto it = qo[m]->stats.op_ticks.find(op);
                Tick t = it == qo[m]->stats.op_ticks.end()
                             ? 0
                             : it->second;
                totals[m][op] += t;
                std::fprintf(stderr, " %10.2f",
                             static_cast<double>(t) / 1e6);
            }
            // Cost-model runs carry the placer's site string; the
            // legacy boolean dispatch keeps the host/device labels.
            const char *where =
                m == 0 ? "host"
                       : (!qo[m]->placement.empty()
                              ? qo[m]->placement.c_str()
                              : (qo[m]->ndp_used ? "device"
                                                 : "host"));
            std::fprintf(stderr, " %-14s", where);
            std::fprintf(stderr, " %s", sel(qo[m]->est_selectivity));
            std::fprintf(stderr, " %s\n",
                         sel(qo[m]->measured_selectivity));
        }
    }
    for (int m = 0; m < 2; ++m) {
        std::fprintf(stderr, "%-5s %-8s", "total",
                     m == 0 ? "conv" : "biscuit");
        for (const char *op : ops)
            std::fprintf(stderr, " %10.2f",
                         static_cast<double>(totals[m][op]) / 1e6);
        std::fprintf(stderr, "\n");
    }
}

}  // namespace

int
main()
{
    using namespace bisc;

    sisc::Env env;
    host::HostSystem host(env.array);
    db::MiniDb mdb(env, host);
    mdb.planner.min_table_bytes = 512_KiB;

    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.05;
    std::printf("populating TPC-H at SF %.2f (paper: SF 100, "
                "~160 GiB)...\n\n",
                cfg.scale_factor);
    tpch::buildTpch(mdb, cfg);

    std::vector<tpch::QueryRun> runs =
        tpch::runSuiteParallel(env, mdb, host::lanesFromEnv());

    const SuiteTotals totals = aggregate(runs);

    std::printf("Fig. 10: TPC-H relative performance "
                "(sorted by speed-up)\n\n");
    std::printf("%-5s %9s %8s %6s  %s\n", "query", "speedup",
                "I/O red.", "match", "planner decision");

    auto sorted = runs;
    std::sort(sorted.begin(), sorted.end(),
              [](const tpch::QueryRun &a, const tpch::QueryRun &b) {
                  return a.speedup() > b.speedup();
              });
    for (const auto &r : sorted) {
        std::printf("Q%-4d %8.2fx %7.1fx %6s  %s\n", r.number,
                    r.speedup(), r.ioReduction(),
                    r.resultsMatch() ? "yes" : "NO",
                    r.biscuit.planner_note.c_str());
    }

    std::printf("\nsummary:\n");
    std::printf("  queries leveraging NDP : %d (paper: 8)\n",
                totals.ndp_count);
    std::printf("  geomean NDP speed-up   : %.1fx (paper: 6.1x)\n",
                totals.geomean);
    std::printf("  top-5 average speed-up : %.1fx (paper: 15.4x)\n",
                totals.top5_avg);
    std::printf("  total suite time       : Conv %.2f s vs Biscuit "
                "%.2f s -> %.1fx (paper: 3.6x)\n",
                totals.total_conv, totals.total_bisc,
                totals.total_conv / totals.total_bisc);

    const char *bd = std::getenv("BISCUIT_OP_BREAKDOWN");
    if (bd != nullptr && bd[0] != '\0' && std::strcmp(bd, "0") != 0)
        printOpBreakdown(runs);
    return 0;
}
