/**
 * @file
 * The Fig. 10 suite driver: all 22 TPC-H queries, Conv and Biscuit,
 * runnable either serially in one Env or as independent parallel
 * simulation lanes forked from a frozen device image — with
 * bit-identical results either way.
 *
 * The 44 (query, mode) simulations become one canonical-order job
 * list for db::runLaneSuite (db/lane_suite.h), which owns the
 * serial-equivalence protocol: lanes fork from the frozen image, a
 * first wave records which selectivity statistics each run sampled,
 * and the few history-coupled runs (first module loader, key-set
 * sharers) are re-run with the serial run's exact shared-state view.
 */

#ifndef BISCUIT_TPCH_SUITE_H_
#define BISCUIT_TPCH_SUITE_H_

#include <vector>

#include "db/minidb.h"
#include "sisc/env.h"
#include "tpch/queries.h"

namespace bisc::tpch {

/**
 * Run every query Conv-then-Biscuit over @p db's populated data. With
 * @p lanes <= 1 the 44 (query, mode) simulations run serially, in
 * order, as one host program in @p env; with more, @p env's device
 * image is frozen and they run as independent lanes on @p lanes
 * worker threads. Results — rows, elapsed ticks, stats, planner notes
 * — are bit-identical either way.
 */
std::vector<QueryRun> runSuite(sisc::Env &env, db::MiniDb &db,
                               unsigned lanes);

}  // namespace bisc::tpch

#endif  // BISCUIT_TPCH_SUITE_H_
