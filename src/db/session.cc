#include "db/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace bisc::db {

namespace {

/**
 * Re-planning hysteresis (PlannerConfig::use_unified_pipelines): an
 * in-flight plan's unlaunched stages are re-priced only when a
 * drive's resident-app or host-stream population shifted by at least
 * kReplanMinDelta since planning, or a core backlog drifted by more
 * than kReplanHysteresis of its planned value. Both guards damp
 * oscillation; both are deterministic (sim-state inputs only).
 */
constexpr std::uint32_t kReplanMinDelta = 1;
constexpr double kReplanHysteresis = 0.25;

/** Absolute floor under the relative backlog-drift trigger: sub-0.1ms
 *  horizon wiggle never forces a re-plan on a quiet array. */
constexpr Tick kMinBacklogDrift = Tick{100000};

bool
sitesEqual(const std::vector<Site> &a, const std::vector<Site> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].on_host != b[i].on_host ||
            a[i].drive != b[i].drive)
            return false;
    return true;
}

}  // namespace

PlacementSession::PlacementSession(MiniDb &db)
    : db_(db), calib_(calibrateCostModel(db)),
      base_(snapshotDriveLoads(db))
{
    db_.place_session = this;
}

PlacementSession::~PlacementSession()
{
    if (db_.place_session == this)
        db_.place_session = nullptr;
}

StageDemand
PlacementSession::demandOf(const Query &q) const
{
    StageDemand demand;
    if (q.plan.valid)
        stageDemand(q.graph, q.plan.sites, calib_, base_.size(), demand);
    return demand;
}

std::vector<DriveLoadSnapshot>
PlacementSession::effectiveLoads(int excluding) const
{
    std::vector<DriveLoadSnapshot> loads = base_;
    for (std::size_t qid = 0; qid < queries_.size(); ++qid) {
        const Query &q = queries_[qid];
        if (!q.live || static_cast<int>(qid) == excluding)
            continue;
        for (std::size_t d = 0;
             d < loads.size() && d < q.demand.drives.size(); ++d) {
            DriveLoadSnapshot &l = loads[d];
            const DriveDemand &claim = q.demand.drives[d];
            l.active_apps += claim.apps;
            l.host_streams += claim.host_streams;
            const Tick horizon =
                claim.core_ticks /
                std::max<std::uint32_t>(1, l.device_cores);
            l.min_core_backlog += horizon;
            l.max_core_backlog += horizon;
            l.user_mem_free -=
                std::min<Bytes>(l.user_mem_free, claim.dram);
        }
    }
    return loads;
}

CostCalibration
PlacementSession::effectiveCalib(int excluding) const
{
    CostCalibration c = calib_;
    for (std::size_t qid = 0; qid < queries_.size(); ++qid) {
        const Query &q = queries_[qid];
        if (!q.live || static_cast<int>(qid) == excluding)
            continue;
        // A host Scan's window issue and per-byte CPU are rounded
        // together here, where predictPipeline rounds them apart.
        c.host_backlog += q.demand.host_ticks;
        for (const HostScanDemand &scan : q.demand.host_scans)
            c.host_backlog +=
                static_cast<Tick>(scan.issue_ns + scan.cpu_ns);
    }
    return c;
}

void
PlacementSession::planOne(Query &q, int qid)
{
    const std::vector<DriveLoadSnapshot> loads =
        effectiveLoads(qid);
    const CostCalibration calib = effectiveCalib(qid);
    q.plan = planPipeline(q.graph, calib, loads, q.cfg, q.force);
    q.demand = demandOf(q);
    q.planned_loads = loads;
}

int
PlacementSession::admit(const PipelineGraph &graph,
                        const PlacerConfig &cfg, PlaceForce force)
{
    // Long-lived sessions (the serving tier) admit queries over sim
    // time: refresh the base so a new query prices today's array, not
    // construction-time's. Queries admitted back-to-back (zero sim
    // time apart) still share one identical snapshot.
    base_ = snapshotDriveLoads(db_);
    calib_ = calibrateCostModel(db_);
    Query q;
    q.live = true;
    q.graph = graph;
    q.cfg = cfg;
    q.force = force;
    q.launched.assign(graph.stages.size(), false);
    const int qid = static_cast<int>(queries_.size());
    queries_.push_back(std::move(q));
    planOne(queries_.back(), qid);
    ++admitted_;
    OBS_COUNT(db_.env().kernel.obs().metrics().counter(
                  "db.place.session.queries", "queries"),
              1);
    return qid;
}

void
PlacementSession::planJointly(std::uint32_t rounds)
{
    std::uint32_t used = 0;
    for (std::uint32_t r = 0; r < rounds; ++r) {
        bool changed = false;
        for (std::size_t qid = 0; qid < queries_.size(); ++qid) {
            Query &q = queries_[qid];
            if (!q.live || q.force != PlaceForce::Auto)
                continue;
            // Launched stages are already committed; a joint round
            // must not move them either.
            const std::vector<Site> before = q.plan.sites;
            bool any_launched = false;
            for (bool b : q.launched)
                any_launched = any_launched || b;
            if (any_launched) {
                const PlacementPlan np = replanPipeline(
                    q.graph, effectiveCalib(static_cast<int>(qid)),
                    effectiveLoads(static_cast<int>(qid)), q.cfg,
                    q.launched, q.plan);
                if (np.valid) {
                    q.plan = np;
                    q.demand = demandOf(q);
                    q.planned_loads =
                        effectiveLoads(static_cast<int>(qid));
                }
            } else {
                planOne(q, static_cast<int>(qid));
            }
            changed =
                changed || !sitesEqual(before, q.plan.sites);
        }
        ++used;
        if (!changed)
            break;
    }
    OBS_COUNT(db_.env().kernel.obs().metrics().counter(
                  "db.place.session.joint_rounds", "rounds"),
              used);
}

const PlacementPlan &
PlacementSession::plan(int qid) const
{
    return queries_.at(static_cast<std::size_t>(qid)).plan;
}

const PipelineGraph &
PlacementSession::graph(int qid) const
{
    return queries_.at(static_cast<std::size_t>(qid)).graph;
}

void
PlacementSession::markLaunched(int qid, std::size_t stage)
{
    Query &q = queries_.at(static_cast<std::size_t>(qid));
    if (stage < q.launched.size())
        q.launched[stage] = true;
}

void
PlacementSession::markLaunched(int qid)
{
    Query &q = queries_.at(static_cast<std::size_t>(qid));
    q.launched.assign(q.launched.size(), true);
}

bool
PlacementSession::maybeReplan(int qid)
{
    Query &q = queries_.at(static_cast<std::size_t>(qid));
    if (!q.live || !q.plan.valid)
        return false;
    // A forced plan's sites are a constraint, not a choice — there is
    // nothing for a fresh snapshot to reconsider.
    if (q.force != PlaceForce::Auto)
        return false;
    bool all_launched = true;
    for (bool b : q.launched)
        all_launched = all_launched && b;
    if (all_launched || q.launched.empty())
        return false;

    // Fresh snapshot: the whole point — the array may have changed
    // since this plan was priced.
    base_ = snapshotDriveLoads(db_);
    calib_ = calibrateCostModel(db_);
    const std::vector<DriveLoadSnapshot> fresh =
        effectiveLoads(qid);

    // Hysteresis: population shifts (a co-tenant app arrived or
    // drained, a host stream opened or closed) count head-for-head;
    // backlog drift counts only past a relative threshold with an
    // absolute floor.
    std::uint32_t pop_delta = 0;
    bool backlog_drift = false;
    const std::size_t drives =
        std::min(fresh.size(), q.planned_loads.size());
    for (std::size_t d = 0; d < drives; ++d) {
        const DriveLoadSnapshot &was = q.planned_loads[d];
        const DriveLoadSnapshot &now = fresh[d];
        pop_delta += now.active_apps > was.active_apps
                         ? now.active_apps - was.active_apps
                         : was.active_apps - now.active_apps;
        pop_delta += now.host_streams > was.host_streams
                         ? now.host_streams - was.host_streams
                         : was.host_streams - now.host_streams;
        const Tick diff = now.min_core_backlog > was.min_core_backlog
                              ? now.min_core_backlog -
                                    was.min_core_backlog
                              : was.min_core_backlog -
                                    now.min_core_backlog;
        if (diff > kMinBacklogDrift &&
            static_cast<double>(diff) >
                kReplanHysteresis *
                    static_cast<double>(std::max<Tick>(
                        was.min_core_backlog, kMinBacklogDrift)))
            backlog_drift = true;
    }
    if (pop_delta < kReplanMinDelta && !backlog_drift)
        return false;

    // Seed mixed with the replan ordinal: the first re-plan of a
    // query draws a different (but reproducible) walk than its
    // admission plan and than its second re-plan.
    PlacerConfig pc = q.cfg;
    pc.seed = q.cfg.seed +
              0x9E3779B97F4A7C15ull *
                  static_cast<std::uint64_t>(q.replan_ordinal + 1);
    ++q.replan_ordinal;
    const PlacementPlan np = replanPipeline(
        q.graph, effectiveCalib(qid), fresh, pc, q.launched, q.plan);
    if (!np.valid)
        return false;
    const bool moved = !sitesEqual(np.sites, q.plan.sites);
    q.plan = np;
    q.demand = demandOf(q);
    q.planned_loads = fresh;
    if (moved) {
        ++replans_;
        OBS_COUNT(db_.env().kernel.obs().metrics().counter(
                      "db.place.replans", "replans"),
                  1);
    }
    return moved;
}

std::uint32_t
PlacementSession::live() const
{
    std::uint32_t n = 0;
    for (const Query &q : queries_)
        n += q.live ? 1 : 0;
    return n;
}

void
PlacementSession::release(int qid)
{
    Query &q = queries_.at(static_cast<std::size_t>(qid));
    q.live = false;
    q.demand = StageDemand{};
}

PlacerConfig
placerConfig(MiniDb &db)
{
    PlacerConfig pc;
    pc.seed = db.planner.place_seed != 0
                  ? db.planner.place_seed
                  : placeSeedFromEnv(pc.seed);
    pc.core_budget = db.env().device.config().device_cores;
    pc.dram_budget = db.env().device.config().user_mem_bytes;
    return pc;
}

PlannedQuery::PlannedQuery(MiniDb &db, const PipelineGraph &graph,
                           PlaceForce force)
    : session_(db.planner.use_unified_pipelines ? db.place_session
                                                : nullptr)
{
    if (session_ != nullptr) {
        qid_ = session_->admit(graph, placerConfig(db), force);
        plan_ = session_->plan(qid_);
        return;
    }
    plan_ = planPipeline(graph, calibrateCostModel(db),
                         snapshotDriveLoads(db), placerConfig(db), force);
}

PlannedQuery::PlannedQuery(PlacementSession &session, int qid)
    : session_(&session), qid_(qid), plan_(session.plan(qid))
{}

PlannedQuery::PlannedQuery(PlannedQuery &&other) noexcept
    : session_(std::exchange(other.session_, nullptr)),
      qid_(std::exchange(other.qid_, -1)),
      plan_(std::move(other.plan_))
{}

PlannedQuery &
PlannedQuery::operator=(PlannedQuery &&other) noexcept
{
    if (this != &other) {
        release();
        session_ = std::exchange(other.session_, nullptr);
        qid_ = std::exchange(other.qid_, -1);
        plan_ = std::move(other.plan_);
    }
    return *this;
}

PlannedQuery::~PlannedQuery()
{
    release();
}

const PlacementPlan &
PlannedQuery::launch()
{
    if (session_ != nullptr) {
        session_->maybeReplan(qid_);
        plan_ = session_->plan(qid_);
        session_->markLaunched(qid_);
    }
    return plan_;
}

int
PlannedQuery::detach()
{
    const int qid = qid_;
    session_ = nullptr;
    qid_ = -1;
    return qid;
}

void
PlannedQuery::release()
{
    if (session_ != nullptr)
        session_->release(detach());
}

}  // namespace bisc::db
