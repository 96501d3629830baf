/**
 * @file
 * Example: DB scan-and-filter offload (paper §V-C, Fig. 8).
 *
 * Loads a small TPC-H dataset into MiniDB and runs the paper's two
 * illustration queries over lineitem — a single shipdate equality and
 * a compound OR/AND filter — with the planner trace printed, so you
 * can watch the sampling check and the offload decision happen.
 */

#include <cstdio>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "tpch/dbgen.h"
#include "util/common.h"

int
main()
{
    using namespace bisc;
    using db::CmpOp;

    sisc::Env env(ssd::defaultConfig(), 1);
    host::HostSystem host(env.array);
    db::MiniDb mdb(env, host);
    mdb.planner.min_table_bytes = 256_KiB;

    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.02;
    std::printf("populating TPC-H at SF %.2f...\n", cfg.scale_factor);
    tpch::buildTpch(mdb, cfg);
    auto &L = mdb.table("lineitem");
    const auto &ls = L.schema();
    std::printf("lineitem: %llu rows, %llu pages (%.1f MiB)\n\n",
                static_cast<unsigned long long>(L.rowCount()),
                static_cast<unsigned long long>(L.pageCount()),
                static_cast<double>(L.sizeBytes()) / (1 << 20));

    // Paper <Query 1>: single date-equality predicate.
    auto q1 = db::cmp(ls, "l_shipdate", CmpOp::Eq,
                      std::string("1995-01-17"));
    // Paper <Query 2>: (date OR date) AND (line 1 OR line 2).
    auto q2 = db::exprAnd(
        {db::exprOr({db::cmp(ls, "l_shipdate", CmpOp::Eq,
                             std::string("1995-01-17")),
                     db::cmp(ls, "l_shipdate", CmpOp::Eq,
                             std::string("1995-01-18"))}),
         db::exprOr({db::cmp(ls, "l_linenumber", CmpOp::Eq,
                             std::int64_t{1}),
                     db::cmp(ls, "l_linenumber", CmpOp::Eq,
                             std::int64_t{2})})});

    env.run([&] {
        int num = 1;
        for (const auto &pred : {q1, q2}) {
            std::printf("--- Query %d ---\n", num++);
            db::DbStats conv_stats, ndp_stats;
            Tick t0 = env.kernel.now();
            auto conv = db::scanTable(mdb, L, pred,
                                      db::EngineMode::Conv,
                                      conv_stats);
            Tick conv_time = env.kernel.now() - t0;

            t0 = env.kernel.now();
            auto ndp = db::scanTable(mdb, L, pred,
                                     db::EngineMode::Biscuit,
                                     ndp_stats);
            Tick ndp_time = env.kernel.now() - t0;

            std::printf("  planner: %s\n", ndp.note.c_str());
            std::printf("  rows: conv %zu / biscuit %zu%s\n",
                        conv.rows.size(), ndp.rows.size(),
                        conv.rows.size() == ndp.rows.size()
                            ? " (match)"
                            : " (MISMATCH!)");
            std::printf("  pages to host: conv %llu / biscuit %llu\n",
                        static_cast<unsigned long long>(
                            conv_stats.pages_to_host),
                        static_cast<unsigned long long>(
                            ndp_stats.pages_to_host));
            std::printf("  time: conv %.2f ms / biscuit %.2f ms "
                        "-> %.1fx\n\n",
                        toMicros(conv_time) / 1000.0,
                        toMicros(ndp_time) / 1000.0,
                        static_cast<double>(conv_time) /
                            static_cast<double>(ndp_time));
        }
    });
    return 0;
}
