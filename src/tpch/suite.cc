#include "tpch/suite.h"

#include "db/lane_suite.h"

namespace bisc::tpch {

std::vector<QueryRun>
runSuite(sisc::Env &env, db::MiniDb &db, unsigned lanes)
{
    const std::vector<int> queries = allQueries();
    std::vector<QueryRun> runs(queries.size());

    // Canonical job order = serial execution order:
    // (q0, Conv), (q0, Biscuit), (q1, Conv), ...
    std::vector<db::LaneSuiteJob> jobs;
    jobs.reserve(queries.size() * 2);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        int q = queries[i];
        runs[i].number = q;
        runs[i].title = queryTitle(q);
        QueryRun *slot = &runs[i];
        jobs.push_back({[q, slot](db::MiniDb &ldb) {
                            slot->conv = runQuery(
                                q, ldb, db::EngineMode::Conv);
                        },
                        false});
        jobs.push_back({[q, slot](db::MiniDb &ldb) {
                            slot->biscuit = runQuery(
                                q, ldb, db::EngineMode::Biscuit);
                        },
                        true});
    }

    db::runLaneSuite(env, db, jobs, lanes);
    return runs;
}

}  // namespace bisc::tpch
