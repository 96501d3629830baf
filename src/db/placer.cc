#include "db/placer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "util/rng.h"

namespace bisc::db {

namespace {

/**
 * Budget + legality check of a complete pipeline assignment whose
 * demand is @p demand: Merge stages are host-only; a device Transform
 * chained in-drive is legal only colocated with a device-placed
 * upstream (the in-drive typed port has no cross-drive flavor); each
 * drive's applications and DRAM claims fit its budgets.
 */
bool
pipelineFeasible(const PipelineGraph &g,
                 const std::vector<Site> &sites,
                 const StageDemand &demand,
                 const std::vector<DriveLoadSnapshot> &loads,
                 const PlacerConfig &cfg)
{
    for (std::size_t i = 0; i < g.stages.size(); ++i) {
        const StageSpec &s = g.stages[i];
        if (sites[i].on_host) {
            if (!s.host_eligible)
                return false;
            continue;
        }
        if (s.kind == StageKind::Merge ||
            sites[i].drive >= loads.size())
            return false;
        if (s.kind == StageKind::Transform && s.colocate_with >= 0 &&
            !colocated(g, sites, i))
            return false;
    }
    for (std::size_t d = 0; d < loads.size(); ++d) {
        const DriveDemand &claim = demand.drives[d];
        if (claim.apps > cfg.core_budget ||
            claim.dram > cfg.dram_budget ||
            claim.dram > loads[d].user_mem_free)
            return false;
    }
    return true;
}

/**
 * Legal sites of pipeline stage @p i under the *current* assignment
 * of the other stages (colocation ties a Transform's device option
 * to wherever its upstream sits right now). Device options first.
 */
std::vector<Site>
pipelineCandidates(const PipelineGraph &g,
                   const std::vector<Site> &sites, std::size_t i)
{
    const StageSpec &s = g.stages[i];
    std::vector<Site> out;
    if (s.kind != StageKind::Merge) {
        if (s.kind == StageKind::Transform && s.colocate_with >= 0) {
            const Site &up =
                sites[static_cast<std::size_t>(s.colocate_with)];
            if (!up.on_host)
                out.push_back(Site{false, up.drive});
        } else {
            for (std::uint32_t d : s.eligible_drives)
                out.push_back(Site{false, d});
        }
    }
    if (s.host_eligible || s.kind == StageKind::Merge)
        out.push_back(Site{true, 0});
    return out;
}

/**
 * One placement search over a stage DAG for the greedy sweep and the
 * annealing walk: the sites stage i may take under the current
 * assignment, the predicted makespan of a complete assignment when it
 * is feasible, and which stages may move at all (a launched stage is
 * pinned; no launched vector pins nothing).
 */
struct Search
{
    const PipelineGraph &graph;
    const CostCalibration &calib;
    const std::vector<DriveLoadSnapshot> &loads;
    const PlacerConfig &cfg;
    const std::vector<bool> *launched = nullptr;

    /** Reused by every pricing of this search: a step allocates
     *  nothing once the first assignment sized it. */
    StageDemand demand{};

    std::vector<Site>
    candidates(const std::vector<Site> &sites, std::size_t i) const
    {
        return pipelineCandidates(graph, sites, i);
    }

    /** predictPipeline of @p sites, or nothing when the assignment
     *  breaks a budget or a legality rule. */
    std::optional<Tick>
    cost(const std::vector<Site> &sites)
    {
        stageDemand(graph, sites, calib, loads.size(), demand);
        if (!pipelineFeasible(graph, sites, demand, loads, cfg))
            return std::nullopt;
        return predictPipeline(demand, calib, loads);
    }

    bool
    movable(std::size_t i) const
    {
        return launched == nullptr || !(*launched)[i];
    }
};

/**
 * Seeded annealing walk from @p plan's sites and prediction: flip
 * one stage's site per step, reject infeasible assignments, accept
 * improvements always and regressions with exp(-delta/T). Draws that
 * land on an immovable stage are burned (cooling still advances), so
 * a fixed seed walks the same schedule whatever is pinned.
 * Best-feasible tracking means @p plan only ever improves; when it
 * does, from_anneal is set.
 */
void
anneal(Search &search, PlacementPlan &plan)
{
    const PlacerConfig &cfg = search.cfg;
    const std::size_t n = plan.sites.size();
    Rng rng(cfg.seed);
    std::vector<Site> cur = plan.sites;
    Tick cur_cost = plan.predicted;
    std::vector<Site> best = plan.sites;
    Tick best_cost = plan.predicted;
    double temp = cfg.t0_ticks;
    for (std::uint32_t it = 0; it < cfg.iterations;
         ++it, temp *= cfg.cooling) {
        const std::size_t i = static_cast<std::size_t>(rng.below(n));
        if (!search.movable(i))
            continue;
        const std::vector<Site> cands = search.candidates(cur, i);
        if (cands.size() < 2)
            continue;
        const Site prev = cur[i];
        const Site next = cands[rng.below(cands.size())];
        if (next.on_host == prev.on_host && next.drive == prev.drive)
            continue;
        cur[i] = next;
        const std::optional<Tick> cost = search.cost(cur);
        if (!cost) {
            cur[i] = prev;
            continue;
        }
        const double delta = static_cast<double>(*cost) -
                             static_cast<double>(cur_cost);
        if (delta <= 0.0 ||
            (temp > 0.0 && rng.uniform() < std::exp(-delta / temp))) {
            cur_cost = *cost;
            if (*cost < best_cost) {
                best_cost = *cost;
                best = cur;
            }
        } else {
            cur[i] = prev;
        }
    }
    if (best_cost < plan.predicted) {
        plan.sites = best;
        plan.predicted = best_cost;
        plan.from_anneal = true;
    }
}

/**
 * Greedy sweep from @p sites in stage order (a topological order —
 * edges point forward): each movable stage takes the feasible
 * candidate minimizing the full-assignment cost, with every later
 * stage still at its current site. Ties keep the earlier candidate
 * (devices first); a stage with no feasible candidate keeps its
 * site. Then (cfg.anneal) the annealing walk from the sweep's result,
 * and the edge diagnostics of where it ends.
 */
PlacementPlan
sweepAndAnneal(Search &search, std::vector<Site> sites)
{
    for (std::size_t i = 0; i < sites.size(); ++i) {
        if (!search.movable(i))
            continue;
        const Site seed = sites[i];
        Site best_site = seed;
        bool placed = false;
        Tick best_cost = 0;
        for (const Site &cand : search.candidates(sites, i)) {
            sites[i] = cand;
            const std::optional<Tick> cost = search.cost(sites);
            if (!cost)
                continue;
            if (!placed || *cost < best_cost) {
                best_cost = *cost;
                best_site = cand;
                placed = true;
            }
        }
        sites[i] = placed ? best_site : seed;
    }
    // The sweep starts feasible and only moves to feasible sites.
    PlacementPlan plan;
    plan.valid = true;
    plan.predicted = search.cost(sites).value();
    plan.sites = std::move(sites);
    if (search.cfg.anneal)
        anneal(search, plan);
    stageDemand(search.graph, plan.sites, search.calib,
                search.loads.size(), search.demand);
    plan.edges_priced = search.demand.edges_priced;
    plan.edge_ticks = search.demand.edge_ticks;
    return plan;
}

}  // namespace

bool
PlacementPlan::anyDevice() const
{
    for (const Site &s : sites)
        if (!s.on_host)
            return true;
    return false;
}

std::string
PlacementPlan::describe() const
{
    std::string out;
    for (const Site &s : sites) {
        if (!out.empty())
            out += ',';
        out += s.on_host ? "host" : "d" + std::to_string(s.drive);
    }
    return out;
}

std::string
PlacementPlan::note(const char *how) const
{
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "%s placed [%s]%s: predicted %.3f ms "
                  "(all-host %.3f ms, all-device %.3f ms)",
                  how, describe().c_str(),
                  from_anneal ? " (annealed)" : "",
                  static_cast<double>(predicted) / 1e6,
                  static_cast<double>(predicted_all_host) / 1e6,
                  static_cast<double>(predicted_all_device) / 1e6);
    return buf;
}

PlacementPlan
placePipeline(const PipelineGraph &graph,
              const CostCalibration &calib,
              const std::vector<DriveLoadSnapshot> &loads,
              const PlacerConfig &cfg)
{
    PlacementPlan plan;
    const std::size_t n = graph.stages.size();
    if (n == 0)
        return plan;

    // Start all-host (always legal for host-eligible stages and for
    // Merge); a stage with no host option seeds on its first drive.
    std::vector<Site> sites(n, Site{true, 0});
    for (std::size_t i = 0; i < n; ++i) {
        const StageSpec &s = graph.stages[i];
        if (!s.host_eligible && s.kind != StageKind::Merge) {
            if (s.eligible_drives.empty())
                return plan;  // nowhere to run: invalid
            sites[i] = Site{false, s.eligible_drives[0]};
        }
    }
    Search search{graph, calib, loads, cfg};
    if (!search.cost(sites))
        return plan;

    // Greedy sweep, then the annealing walk. A chained Transform
    // reaches the host in one move and a new drive only via its
    // upstream, so uphill acceptance early on matters here.
    plan = sweepAndAnneal(search, std::move(sites));
    plan.predicted_all_host =
        forcedPipelinePlan(graph, calib, loads, true).predicted;
    plan.predicted_all_device =
        forcedPipelinePlan(graph, calib, loads, false).predicted;
    return plan;
}

PlacementPlan
forcedPipelinePlan(const PipelineGraph &graph,
                   const CostCalibration &calib,
                   const std::vector<DriveLoadSnapshot> &loads,
                   bool on_host)
{
    PlacementPlan plan;
    const std::size_t n = graph.stages.size();
    plan.sites.assign(n, Site{true, 0});
    if (!on_host) {
        for (std::size_t i = 0; i < n; ++i) {
            const StageSpec &s = graph.stages[i];
            if (s.kind == StageKind::Merge)
                continue;  // merge has no device flavor
            if (s.kind == StageKind::Transform &&
                s.colocate_with >= 0) {
                const Site &up = plan.sites[static_cast<std::size_t>(
                    s.colocate_with)];
                if (!up.on_host)
                    plan.sites[i] = up;
            } else if (!s.eligible_drives.empty()) {
                plan.sites[i] = Site{false, s.eligible_drives[0]};
            }
        }
    }
    plan.valid = n > 0;
    StageDemand demand;
    stageDemand(graph, plan.sites, calib, loads.size(), demand);
    plan.predicted = predictPipeline(demand, calib, loads);
    plan.edges_priced = demand.edges_priced;
    plan.edge_ticks = demand.edge_ticks;
    plan.predicted_all_host = plan.predicted;
    plan.predicted_all_device = plan.predicted;
    return plan;
}

PlacementPlan
planPipeline(const PipelineGraph &graph, const CostCalibration &calib,
             const std::vector<DriveLoadSnapshot> &loads,
             const PlacerConfig &cfg, PlaceForce force)
{
    return force == PlaceForce::Auto
               ? placePipeline(graph, calib, loads, cfg)
               : forcedPipelinePlan(graph, calib, loads,
                                    force == PlaceForce::AllHost);
}

PlacementPlan
replanPipeline(const PipelineGraph &graph,
               const CostCalibration &calib,
               const std::vector<DriveLoadSnapshot> &loads,
               const PlacerConfig &cfg,
               const std::vector<bool> &launched,
               const PlacementPlan &current)
{
    const std::size_t n = graph.stages.size();
    BISC_ASSERT(current.sites.size() == n && launched.size() == n,
                "replanPipeline arity mismatch");
    PlacementPlan plan;
    if (n == 0)
        return plan;

    // Seed from the in-flight assignment: launched stages are pinned
    // (their applications are instantiated / their streams opened),
    // everything else starts where it was and may move.
    std::vector<Site> sites = current.sites;
    Search search{graph, calib, loads, cfg, &launched};
    if (!search.cost(sites))
        return plan;  // pinned prefix already infeasible: keep current

    // The same greedy sweep and annealing walk, restricted to the
    // unlaunched stages; launched stages contribute their pinned
    // costs to every prediction.
    plan = sweepAndAnneal(search, std::move(sites));
    plan.predicted_all_host = current.predicted_all_host;
    plan.predicted_all_device = current.predicted_all_device;
    return plan;
}

std::uint64_t
placeSeedFromEnv(std::uint64_t fallback)
{
    const char *env = std::getenv("BISCUIT_PLACE_SEED");
    if (env == nullptr || env[0] == '\0')
        return fallback;
    char *end = nullptr;
    const int base =
        env[0] == '0' && (env[1] == 'x' || env[1] == 'X') ? 16 : 10;
    unsigned long long v = std::strtoull(env, &end, base);
    if (end == env || *end != '\0')
        return fallback;
    return static_cast<std::uint64_t>(v);
}

}  // namespace bisc::db
