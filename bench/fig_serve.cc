/**
 * @file
 * Concurrent multi-client serving under tail-latency SLOs (ROADMAP:
 * open-loop workload driver; Conduit/TCAM-SSD framing of in-drive
 * offload as a shared, contended service).
 *
 * Eight clients (overridable via BISCUIT_CLIENTS) submit an open-loop
 * mix of TPC-H offloads, point lookups, grep offloads and host word
 * counts against a 1-drive and a 4-drive array. Admission control
 * queues or rejects offloads when per-drive core/DRAM budgets are
 * exhausted; per-tenant p50/p99/p999 come from exact sim-clock
 * samples. BISCUIT_PIPELINE_PLACE and BISCUIT_UNIFIED_PIPELINES pick
 * the engine's planner (serve::plannerConfigFromEnv).
 *
 * The drive counts are fixed here (BISCUIT_DRIVES is ignored) and the
 * printed figures never depend on BISCUIT_OBS or BISCUIT_LANES, so
 * the transcript is golden-comparable in any environment. The final
 * section checks the drive-count-invariant aggregates (result rows,
 * lookup keys, grep matches, word counts) across the two topologies.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "serve/serve.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "util/common.h"

namespace {

bisc::serve::ServeReport
runAt(std::uint32_t drives, const bisc::serve::ServeConfig &cfg,
      const bisc::db::PlannerConfig &planner)
{
    bisc::sisc::Env env(bisc::ssd::defaultConfig(), drives);
    return bisc::serve::runServe(env, cfg, planner);
}

void
printReport(std::uint32_t drives, const bisc::serve::ServeReport &rep)
{
    using bisc::Tick;
    std::printf("--- %u drive%s ---\n", drives,
                drives == 1 ? "" : "s");
    std::printf("%-12s %3s %6s %6s %6s %10s %10s %10s %10s\n",
                "tenant", "w", "subm", "done", "rej", "p50_us",
                "p99_us", "p999_us", "max_us");
    for (const auto &t : rep.tenants) {
        std::printf(
            "%-12s %3u %6llu %6llu %6llu %10.1f %10.1f %10.1f "
            "%10.1f\n",
            t.name.c_str(), t.weight,
            static_cast<unsigned long long>(t.submitted),
            static_cast<unsigned long long>(t.completed),
            static_cast<unsigned long long>(t.rejected),
            bisc::toMicros(t.p50), bisc::toMicros(t.p99),
            bisc::toMicros(t.p999), bisc::toMicros(t.max));
    }
    std::printf("jobs: %llu submitted, %llu completed, %llu "
                "rejected; makespan %.3f ms; fairness %.4f\n",
                static_cast<unsigned long long>(rep.submitted),
                static_cast<unsigned long long>(rep.completed),
                static_cast<unsigned long long>(rep.rejected),
                static_cast<double>(rep.makespan) / 1e6,
                rep.fairness);
    std::printf("aggregates: tpch_rows=%llu lookup_sum=%llu "
                "grep_matches=%llu words=%llu\n",
                static_cast<unsigned long long>(rep.tpch_rows),
                static_cast<unsigned long long>(rep.lookup_sum),
                static_cast<unsigned long long>(rep.grep_matches),
                static_cast<unsigned long long>(rep.wordcount_words));
    std::printf("event log: %llu events, fnv64=%016llx\n\n",
                static_cast<unsigned long long>(
                    std::count(rep.event_log.begin(),
                               rep.event_log.end(), '\n')),
                static_cast<unsigned long long>(rep.event_hash));
}

}  // namespace

int
main()
{
    using namespace bisc;

    serve::ServeConfig cfg = serve::serveConfigFromEnv();
    const db::PlannerConfig planner = serve::plannerConfigFromEnv();

    std::printf("Serving: open-loop multi-client mix with admission "
                "control\n");
    std::printf("clients: %u x %u jobs, seed %llu, mean interarrival "
                "%.1f ms\n\n",
                cfg.clients, cfg.jobs_per_client,
                static_cast<unsigned long long>(cfg.seed),
                static_cast<double>(cfg.mean_interarrival) / 1e6);

    const std::uint32_t counts[] = {1, 4};
    std::vector<serve::ServeReport> reports;
    for (std::uint32_t n : counts) {
        reports.push_back(runAt(n, cfg, planner));
        printReport(n, reports.back());
    }

    const auto &a = reports[0];
    const auto &b = reports[1];
    const bool match = a.tpch_rows == b.tpch_rows &&
                       a.lookup_sum == b.lookup_sum &&
                       a.grep_matches == b.grep_matches &&
                       a.wordcount_words == b.wordcount_words &&
                       a.submitted == b.submitted;
    std::printf("aggregates match across topologies: %s\n",
                match ? "yes" : "NO");
    return match ? 0 : 1;
}
