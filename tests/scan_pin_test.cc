/**
 * @file
 * Scan dispatch pins: one predicate through every shape the planner
 * can route a table scan into, at 1 and 4 drives, each scanned twice
 * on one system (the second scan sees resident modules and, for
 * cost-model scans, the first scan's matched-page feedback).
 *
 * Every scan's report is pinned field by field — row digest, elapsed
 * ticks, DbStats counters, op_ticks, used_ndp, selectivities, note,
 * placement and predicted ticks — so a change to the executor or the
 * placer that moves any simulated output fails here first.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "db/session.h"
#include "db/table.h"
#include "db/types.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

Schema
eventsSchema()
{
    return Schema({col("id", Type::Int64), col("day", Type::Date),
                   col("qty", Type::Double),
                   col("tag", Type::String, 10)});
}

/** Clustered fact rows: id/day ascending, qty noise (see prune_test). */
std::vector<Row>
eventRows(std::uint64_t seed, std::int64_t n)
{
    Rng rng(seed);
    std::vector<Row> rows;
    rows.reserve(n);
    for (std::int64_t i = 0; i < n; ++i) {
        rows.push_back(
            {i, dateAddDays("1994-01-01", i * 730 / n),
             static_cast<double>(rng.below(100)),
             std::string(rng.below(3) == 0 ? "alpha" : "beta")});
    }
    return rows;
}

/** One way the planner can route the scan. */
struct Shape
{
    const char *name;
    EngineMode mode;
    void (*configure)(PlannerConfig &);
    bool session = false;
};

void
paper(PlannerConfig &)
{}

void
paperReject(PlannerConfig &p)
{
    p.page_selectivity_threshold = -1.0;
}

void
statsConv(PlannerConfig &p)
{
    p.use_stats = true;
    p.page_selectivity_threshold = -1.0;
}

void
statsNdp(PlannerConfig &p)
{
    p.use_stats = true;
    p.page_selectivity_threshold = 1.0;
}

template <PlaceForce F>
void
costModel(PlannerConfig &p)
{
    p.use_stats = true;
    p.use_cost_model = true;
    p.place_force = F;
}

template <PlaceForce F>
void
pipeline(PlannerConfig &p)
{
    costModel<F>(p);
    p.use_pipeline = true;
}

void
unified(PlannerConfig &p)
{
    pipeline<PlaceForce::Auto>(p);
    p.use_unified_pipelines = true;
}

const Shape kShapes[] = {
    {"conv", EngineMode::Conv, paper},
    {"paper_offload", EngineMode::Biscuit, paper},
    {"paper_reject", EngineMode::Biscuit, paperReject},
    {"stats_conv", EngineMode::Biscuit, statsConv},
    {"stats_ndp", EngineMode::Biscuit, statsNdp},
    {"cost_all_host", EngineMode::Biscuit,
     costModel<PlaceForce::AllHost>},
    {"cost_all_device", EngineMode::Biscuit,
     costModel<PlaceForce::AllDevice>},
    {"cost_auto", EngineMode::Biscuit, costModel<PlaceForce::Auto>},
    {"pipe_all_device", EngineMode::Biscuit,
     pipeline<PlaceForce::AllDevice>},
    {"pipe_auto", EngineMode::Biscuit, pipeline<PlaceForce::Auto>},
    {"session", EngineMode::Biscuit, unified, true},
};

std::uint64_t
fnv1a(std::uint64_t h, const std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** One line per scan: everything the scan reports, in fixed order. */
std::string
describe(const PackedScan &out, Tick elapsed, const DbStats &st)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < out.rows.size(); ++i)
        h = fnv1a(h, out.rows.slot(i), out.rows.rowWidth());
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "rows=%zu/%016llx elapsed=%llu ndp=%d sel=%.4f/%.4f/%.4f "
        "predicted=%llu placement=[%s] stats=%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%llu,%llu ops=",
        out.rows.size(), static_cast<unsigned long long>(h),
        static_cast<unsigned long long>(elapsed), out.used_ndp ? 1 : 0,
        out.sampled_selectivity, out.est_selectivity,
        out.measured_selectivity,
        static_cast<unsigned long long>(out.predicted_ticks),
        out.placement.c_str(),
        static_cast<unsigned long long>(st.pages_to_host),
        static_cast<unsigned long long>(st.pages_scanned_device),
        static_cast<unsigned long long>(st.sample_pages),
        static_cast<unsigned long long>(st.rows_examined),
        static_cast<unsigned long long>(st.ndp_scans),
        static_cast<unsigned long long>(st.conv_scans),
        static_cast<unsigned long long>(st.prune_chunks_considered),
        static_cast<unsigned long long>(st.prune_chunks_skipped),
        static_cast<unsigned long long>(st.prune_pages_skipped));
    std::string line = buf;
    for (const auto &[op, ticks] : st.op_ticks)
        line += op + ":" + std::to_string(ticks) + ",";
    line += " note=" + out.note;
    return line;
}

/** Two scans of one shape on a fresh @p drives-drive system. */
std::string
runShape(const Shape &shape, std::uint32_t drives, const ExprPtr &pred)
{
    sisc::Env env(ssd::testConfig(), drives);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    db.planner.min_table_bytes = 8_KiB;
    db.planner.sample_pages = 8;
    db.planner.place_seed = 0xfeedull;
    shape.configure(db.planner);
    db.createShardedTable("events", eventsSchema())
        .loadRows(eventRows(7, 12000));

    std::string out;
    env.run([&] {
        std::unique_ptr<PlacementSession> session;
        if (shape.session)
            session = std::make_unique<PlacementSession>(db);
        for (int scan = 0; scan < 2; ++scan) {
            DbStats stats;
            const Tick t0 = env.kernel.now();
            PackedScan r = scanTablePacked(db, db.table("events"), pred,
                                           shape.mode, stats);
            out += std::string(shape.name) + " d" +
                   std::to_string(drives) + " #" +
                   std::to_string(scan) + " " +
                   describe(r, env.kernel.now() - t0, stats) + "\n";
        }
    });
    return out;
}

// clang-format off
const char *const kPinned =
R"(conv d1 #0 rows=757/0dc3fd930dae71e3 elapsed=2632355 ndp=0 sel=-1.0000/-1.0000/0.0748 predicted=0 placement=[] stats=107,0,0,12000,0,1,0,0,0 ops=conv_scan:2632355, note=conventional scan
conv d1 #1 rows=757/0dc3fd930dae71e3 elapsed=2632355 ndp=0 sel=-1.0000/-1.0000/0.0748 predicted=0 placement=[] stats=107,0,0,12000,0,1,0,0,0 ops=conv_scan:2632355, note=conventional scan
paper_offload d1 #0 rows=757/0dc3fd930dae71e3 elapsed=3730276 ndp=1 sel=0.1250/-1.0000/0.0935 predicted=0 placement=[] stats=10,107,8,1130,1,0,0,0,0 ops=ndp_scan:1564125,sample:2166151, note=offloaded (sampled page selectivity 0.12)
paper_offload d1 #1 rows=757/0dc3fd930dae71e3 elapsed=1564125 ndp=1 sel=0.1250/-1.0000/0.0935 predicted=0 placement=[] stats=10,107,0,1130,1,0,0,0,0 ops=ndp_scan:1564125, note=offloaded (sampled page selectivity 0.12)
paper_reject d1 #0 rows=757/0dc3fd930dae71e3 elapsed=4798506 ndp=0 sel=0.1250/-1.0000/0.0748 predicted=0 placement=[] stats=107,0,8,12000,0,1,0,0,0 ops=conv_scan:2632355,sample:2166151, note=sampling advises against offload (page selectivity 0.12 > -1.00)
paper_reject d1 #1 rows=757/0dc3fd930dae71e3 elapsed=2632355 ndp=0 sel=0.1250/-1.0000/0.0748 predicted=0 placement=[] stats=107,0,0,12000,0,1,0,0,0 ops=conv_scan:2632355, note=sampling advises against offload (page selectivity 0.12 > -1.00)
stats_conv d1 #0 rows=757/0dc3fd930dae71e3 elapsed=1578150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=0 placement=[] stats=64,0,0,7232,0,1,4,2,43 ops=conv_scan:1578150, note=stats advise against offload (est page selectivity 0.60 > -1.00, row selectivity 0.0636)
stats_conv d1 #1 rows=757/0dc3fd930dae71e3 elapsed=1578150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=0 placement=[] stats=64,0,0,7232,0,1,4,2,43 ops=conv_scan:1578150, note=stats advise against offload (est page selectivity 0.60 > -1.00, row selectivity 0.0636)
stats_ndp d1 #0 rows=757/0dc3fd930dae71e3 elapsed=2527886 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=0 placement=[] stats=10,64,0,1130,1,0,4,2,43 ops=ndp_scan:2527886, note=offloaded (histogram est page selectivity 0.60, row selectivity 0.0636, zones keep 2/4 chunks)
stats_ndp d1 #1 rows=757/0dc3fd930dae71e3 elapsed=1226125 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=0 placement=[] stats=10,64,0,1130,1,0,4,2,43 ops=ndp_scan:1226125, note=offloaded (histogram est page selectivity 0.60, row selectivity 0.0636, zones keep 2/4 chunks)
cost_all_host d1 #0 rows=757/0dc3fd930dae71e3 elapsed=1578150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1243587 placement=[host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=placed_scan:1578150, note=cost model placed [host,host,host]: predicted 1.244 ms (all-host 1.244 ms, all-device 1.244 ms); predicted 1.244 ms, measured 1.578 ms (err 21%)
cost_all_host d1 #1 rows=757/0dc3fd930dae71e3 elapsed=1578150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1272016 placement=[host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=placed_scan:1578150, note=cost model placed [host,host,host]: predicted 1.272 ms (all-host 1.272 ms, all-device 1.272 ms); predicted 1.272 ms, measured 1.578 ms (err 19%)
cost_all_device d1 #0 rows=757/0dc3fd930dae71e3 elapsed=2527886 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=1677561 placement=[d0,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=placed_scan:2527886, note=cost model placed [d0,host,host]: predicted 1.678 ms (all-host 1.678 ms, all-device 1.678 ms); predicted 1.678 ms, measured 2.528 ms (err 34%)
cost_all_device d1 #1 rows=757/0dc3fd930dae71e3 elapsed=1226125 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=562100 placement=[d0,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=placed_scan:1226125, note=cost model placed [d0,host,host]: predicted 0.562 ms (all-host 0.562 ms, all-device 0.562 ms); predicted 0.562 ms, measured 1.226 ms (err 54%)
cost_auto d1 #0 rows=757/0dc3fd930dae71e3 elapsed=1578150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1243587 placement=[host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=placed_scan:1578150, note=cost model placed [host,host,host]: predicted 1.244 ms (all-host 1.244 ms, all-device 1.678 ms); predicted 1.244 ms, measured 1.578 ms (err 21%)
cost_auto d1 #1 rows=757/0dc3fd930dae71e3 elapsed=2527886 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=562100 placement=[d0,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=placed_scan:2527886, note=cost model placed [d0,host,host]: predicted 0.562 ms (all-host 1.272 ms, all-device 0.562 ms); predicted 0.562 ms, measured 2.528 ms (err 78%)
pipe_all_device d1 #0 rows=757/0dc3fd930dae71e3 elapsed=3803121 ndp=1 sel=-1.0000/0.5981/0.0748 predicted=9144283 placement=[d0,d0,host] stats=8,64,0,757,1,0,4,2,43 ops=pipelined_scan:3803121, note=pipeline placed [d0,d0,host]: predicted 9.144 ms (all-host 9.144 ms, all-device 9.144 ms); predicted 9.144 ms, measured 3.803 ms (err 140%)
pipe_all_device d1 #1 rows=757/0dc3fd930dae71e3 elapsed=2501360 ndp=1 sel=-1.0000/0.5981/0.0748 predicted=1587219 placement=[d0,d0,host] stats=8,64,0,757,1,0,4,2,43 ops=pipelined_scan:2501360, note=pipeline placed [d0,d0,host]: predicted 1.587 ms (all-host 1.587 ms, all-device 1.587 ms); predicted 1.587 ms, measured 2.501 ms (err 37%)
pipe_auto d1 #0 rows=757/0dc3fd930dae71e3 elapsed=1578150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1243587 placement=[host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=pipelined_scan:1578150, note=pipeline placed [host,host,host]: predicted 1.244 ms (all-host 1.244 ms, all-device 9.144 ms); predicted 1.244 ms, measured 1.578 ms (err 21%)
pipe_auto d1 #1 rows=757/0dc3fd930dae71e3 elapsed=2527886 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=562100 placement=[d0,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=pipelined_scan:2527886, note=pipeline placed [d0,host,host]: predicted 0.562 ms (all-host 1.272 ms, all-device 1.587 ms); predicted 0.562 ms, measured 2.528 ms (err 78%)
session d1 #0 rows=757/0dc3fd930dae71e3 elapsed=1578150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1243587 placement=[host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=pipelined_scan:1578150, note=session pipeline placed [host,host,host]: predicted 1.244 ms (all-host 1.244 ms, all-device 9.144 ms); predicted 1.244 ms, measured 1.578 ms (err 21%)
session d1 #1 rows=757/0dc3fd930dae71e3 elapsed=2527886 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=562100 placement=[d0,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=pipelined_scan:2527886, note=session pipeline placed [d0,host,host]: predicted 0.562 ms (all-host 1.272 ms, all-device 1.587 ms); predicted 0.562 ms, measured 2.528 ms (err 78%)
conv d4 #0 rows=757/0dc3fd930dae71e3 elapsed=2032355 ndp=0 sel=-1.0000/-1.0000/0.0748 predicted=0 placement=[] stats=107,0,0,12000,0,1,0,0,0 ops=conv_scan:2032355, note=conventional scan
conv d4 #1 rows=757/0dc3fd930dae71e3 elapsed=2032355 ndp=0 sel=-1.0000/-1.0000/0.0748 predicted=0 placement=[] stats=107,0,0,12000,0,1,0,0,0 ops=conv_scan:2032355, note=conventional scan
paper_offload d4 #0 rows=757/0dc3fd930dae71e3 elapsed=7046658 ndp=1 sel=0.1250/-1.0000/0.0935 predicted=0 placement=[] stats=10,107,8,1130,1,0,0,0,0 ops=ndp_scan:1090797,sample:5955861, note=offloaded (sampled page selectivity 0.12)
paper_offload d4 #1 rows=757/0dc3fd930dae71e3 elapsed=1090797 ndp=1 sel=0.1250/-1.0000/0.0935 predicted=0 placement=[] stats=10,107,0,1130,1,0,0,0,0 ops=ndp_scan:1090797, note=offloaded (sampled page selectivity 0.12)
paper_reject d4 #0 rows=757/0dc3fd930dae71e3 elapsed=7988216 ndp=0 sel=0.1250/-1.0000/0.0748 predicted=0 placement=[] stats=107,0,8,12000,0,1,0,0,0 ops=conv_scan:2032355,sample:5955861, note=sampling advises against offload (page selectivity 0.12 > -1.00)
paper_reject d4 #1 rows=757/0dc3fd930dae71e3 elapsed=2032355 ndp=0 sel=0.1250/-1.0000/0.0748 predicted=0 placement=[] stats=107,0,0,12000,0,1,0,0,0 ops=conv_scan:2032355, note=sampling advises against offload (page selectivity 0.12 > -1.00)
stats_conv d4 #0 rows=757/0dc3fd930dae71e3 elapsed=1218150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=0 placement=[] stats=64,0,0,7232,0,1,4,2,43 ops=conv_scan:1218150, note=stats advise against offload (est page selectivity 0.60 > -1.00, row selectivity 0.0636)
stats_conv d4 #1 rows=757/0dc3fd930dae71e3 elapsed=1218150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=0 placement=[] stats=64,0,0,7232,0,1,4,2,43 ops=conv_scan:1218150, note=stats advise against offload (est page selectivity 0.60 > -1.00, row selectivity 0.0636)
stats_ndp d4 #0 rows=757/0dc3fd930dae71e3 elapsed=6204241 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=0 placement=[] stats=10,64,0,1130,1,0,4,2,43 ops=ndp_scan:6204241, note=offloaded (histogram est page selectivity 0.60, row selectivity 0.0636, zones keep 2/4 chunks)
stats_ndp d4 #1 rows=757/0dc3fd930dae71e3 elapsed=997197 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=0 placement=[] stats=10,64,0,1130,1,0,4,2,43 ops=ndp_scan:997197, note=offloaded (histogram est page selectivity 0.60, row selectivity 0.0636, zones keep 2/4 chunks)
cost_all_host d4 #0 rows=757/0dc3fd930dae71e3 elapsed=1218150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1243580 placement=[host,host,host,host,host,host,host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=placed_scan:1218150, note=cost model placed [host,host,host,host,host,host,host,host,host]: predicted 1.244 ms (all-host 1.244 ms, all-device 1.244 ms); predicted 1.244 ms, measured 1.218 ms (err 2%)
cost_all_host d4 #1 rows=757/0dc3fd930dae71e3 elapsed=1218150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1240006 placement=[host,host,host,host,host,host,host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=placed_scan:1218150, note=cost model placed [host,host,host,host,host,host,host,host,host]: predicted 1.240 ms (all-host 1.240 ms, all-device 1.240 ms); predicted 1.240 ms, measured 1.218 ms (err 2%)
cost_all_device d4 #0 rows=757/0dc3fd930dae71e3 elapsed=6204241 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=1677556 placement=[d0,d1,d2,d3,host,host,host,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=placed_scan:6204241, note=cost model placed [d0,d1,d2,d3,host,host,host,host,host]: predicted 1.678 ms (all-host 1.678 ms, all-device 1.678 ms); predicted 1.678 ms, measured 6.204 ms (err 73%)
cost_all_device d4 #1 rows=757/0dc3fd930dae71e3 elapsed=997197 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=261050 placement=[d0,d1,d2,d3,host,host,host,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=placed_scan:997197, note=cost model placed [d0,d1,d2,d3,host,host,host,host,host]: predicted 0.261 ms (all-host 0.261 ms, all-device 0.261 ms); predicted 0.261 ms, measured 0.997 ms (err 74%)
cost_auto d4 #0 rows=757/0dc3fd930dae71e3 elapsed=1218150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1243580 placement=[host,host,host,host,host,host,host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=placed_scan:1218150, note=cost model placed [host,host,host,host,host,host,host,host,host]: predicted 1.244 ms (all-host 1.244 ms, all-device 1.678 ms); predicted 1.244 ms, measured 1.218 ms (err 2%)
cost_auto d4 #1 rows=757/0dc3fd930dae71e3 elapsed=6204241 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=261050 placement=[d0,d1,d2,d3,host,host,host,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=placed_scan:6204241, note=cost model placed [d0,d1,d2,d3,host,host,host,host,host]: predicted 0.261 ms (all-host 1.240 ms, all-device 0.261 ms); predicted 0.261 ms, measured 6.204 ms (err 96%)
pipe_all_device d4 #0 rows=757/0dc3fd930dae71e3 elapsed=6772913 ndp=1 sel=-1.0000/0.5981/0.0748 predicted=2412427 placement=[d0,d1,d2,d3,d0,d1,d2,d3,host] stats=8,64,0,757,1,0,4,2,43 ops=pipelined_scan:6772913, note=pipeline placed [d0,d1,d2,d3,d0,d1,d2,d3,host]: predicted 2.412 ms (all-host 2.412 ms, all-device 2.412 ms); predicted 2.412 ms, measured 6.773 ms (err 64%)
pipe_all_device d4 #1 rows=757/0dc3fd930dae71e3 elapsed=1565869 ndp=1 sel=-1.0000/0.5981/0.0748 predicted=523137 placement=[d0,d1,d2,d3,d0,d1,d2,d3,host] stats=8,64,0,757,1,0,4,2,43 ops=pipelined_scan:1565869, note=pipeline placed [d0,d1,d2,d3,d0,d1,d2,d3,host]: predicted 0.523 ms (all-host 0.523 ms, all-device 0.523 ms); predicted 0.523 ms, measured 1.566 ms (err 67%)
pipe_auto d4 #0 rows=757/0dc3fd930dae71e3 elapsed=1218150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1243580 placement=[host,host,host,host,host,host,host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=pipelined_scan:1218150, note=pipeline placed [host,host,host,host,host,host,host,host,host]: predicted 1.244 ms (all-host 1.244 ms, all-device 2.412 ms); predicted 1.244 ms, measured 1.218 ms (err 2%)
pipe_auto d4 #1 rows=757/0dc3fd930dae71e3 elapsed=6204241 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=261050 placement=[d0,d1,d2,d3,host,host,host,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=pipelined_scan:6204241, note=pipeline placed [d0,d1,d2,d3,host,host,host,host,host]: predicted 0.261 ms (all-host 1.240 ms, all-device 0.523 ms); predicted 0.261 ms, measured 6.204 ms (err 96%)
session d4 #0 rows=757/0dc3fd930dae71e3 elapsed=1218150 ndp=0 sel=-1.0000/0.5981/0.0748 predicted=1243580 placement=[host,host,host,host,host,host,host,host,host] stats=64,0,0,7232,0,1,4,2,43 ops=pipelined_scan:1218150, note=session pipeline placed [host,host,host,host,host,host,host,host,host]: predicted 1.244 ms (all-host 1.244 ms, all-device 2.412 ms); predicted 1.244 ms, measured 1.218 ms (err 2%)
session d4 #1 rows=757/0dc3fd930dae71e3 elapsed=6204241 ndp=1 sel=-1.0000/0.5981/0.0935 predicted=261050 placement=[d0,d1,d2,d3,host,host,host,host,host] stats=10,64,0,1130,1,0,4,2,43 ops=pipelined_scan:6204241, note=session pipeline placed [d0,d1,d2,d3,host,host,host,host,host]: predicted 0.261 ms (all-host 1.240 ms, all-device 0.523 ms); predicted 0.261 ms, measured 6.204 ms (err 96%)
)";
// clang-format on

TEST(ScanPin, EveryDispatchShapeAtOneAndFourDrives)
{
    const auto pred = between(eventsSchema(), "day",
                              std::string("1995-03-01"),
                              std::string("1995-04-15"));
    std::string got;
    for (std::uint32_t drives : {1u, 4u})
        for (const Shape &shape : kShapes)
            got += runShape(shape, drives, pred);
    EXPECT_EQ(got, kPinned);
}

}  // namespace
}  // namespace bisc::db
