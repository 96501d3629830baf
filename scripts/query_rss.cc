/**
 * @file
 * Per-query peak-RSS report for `scripts/profile.sh --rss tpch_suite`:
 * says which queries raise the process's high-water mark, and by how
 * much.
 *
 * It builds fig10's system (1 drive, TPC-H SF 0.05, min_table_bytes
 * 512 KiB, every other planner gate at its default: the benchmark's
 * tpch_suite configuration) and runs the 22 queries, Conv then
 * Biscuit, in the order the benchmark harness runs them. After the
 * build and after each query it prints the peak RSS so far
 * (getrusage's ru_maxrss) and how much that step raised it. A query
 * whose rows stay under the peak an earlier one set raises it by 0,
 * so the figures read as "what the suite's peak would be without the
 * queries after this one".
 *
 * Linked against the static libraries of the perfbench/CMakeLists.txt
 * build; see scripts/profile.sh.
 */

#include <sys/resource.h>

#include <cstdio>

#include "db/minidb.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace {

/** Peak resident set of this process so far, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int
main()
{
    using namespace bisc;
    double last = peakRssMb();
    auto report = [&last](const char *step, const char *mode) {
        const double now = peakRssMb();
        std::printf("%-26s %-8s %9.1f %9.1f\n", step, mode, now,
                    now - last);
        last = now;
    };
    std::printf("%-26s %-8s %9s %9s\n", "step", "mode", "peak MB",
                "raised");
    report("start", "");

    sisc::Env env(ssd::defaultConfig(), 1);
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    db.planner.min_table_bytes = 512_KiB;
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.05;
    tpch::buildTpch(db, cfg);
    report("build (SF 0.05, 1 drive)", "");

    env.run([&] {
        for (int q : tpch::allQueries()) {
            const std::string title = tpch::queryTitle(q);
            const std::string name = title.substr(0, title.find(' '));
            tpch::runQuery(q, db, db::EngineMode::Conv);
            report(name.c_str(), "Conv");
            tpch::runQuery(q, db, db::EngineMode::Biscuit);
            report(name.c_str(), "Biscuit");
        }
    });
    std::printf("\npeak RSS %.1f MB\n", peakRssMb());
    return 0;
}
