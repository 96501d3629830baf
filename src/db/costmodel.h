/**
 * @file
 * Analytic cost model for SSDlet placement (ROADMAP: "cost-model-
 * driven SSDlet placement across the array").
 *
 * Predicts the makespan of a multi-stage FBP offload graph — a
 * stage DAG (scan -> re-check -> merge for table scans and join
 * prefilters, grep and word-count pipelines) — with each stage on a
 * candidate site: a drive of the array or the host. One model prices
 * every placed workload, in two steps: stageDemand() prices the
 * assignment once (per-drive claims, device-core charges, host
 * work), and predictPipeline() folds that demand into a makespan
 * against the drives' load. The placer's budget check and a
 * PlacementSession's occupancy read the same demand. Three
 * deterministic inputs:
 *
 *   1. Calibrated per-layer service rates. Priors come straight from
 *      the SsdConfig / HostConfig constants the simulator itself
 *      charges (pattern-matcher control time, channel bandwidth, the
 *      port decompositions of Table II in both directions, HIL DMA
 *      bandwidth, host CPU ns/byte); the NAND channel rate is refined
 *      from the device's *always-on* accounting
 *      (NandFlash::channelBusyTicks / bytesRead) once real traffic
 *      has flowed.
 *   2. Table statistics (db/stats.h): pruned page counts and the
 *      histogram page-selectivity estimate bound how many pages each
 *      stage streams and ships.
 *   3. Per-drive load (sisc::DriveArray::loadOf + core and channel
 *      busy-until horizons + host::HostSystem::activeStreamsOn): a
 *      drive saturated by a co-tenant delays a new SSDlet by its core
 *      backlog, time-slices its control work, and — the host-stream
 *      contention term — deflates the effective channel/PCIe rate a
 *      host stream pulling from that drive sees.
 *
 * Determinism is load-bearing: everything here reads sim-side state
 * that exists whether or not observability is enabled — never the
 * BISCUIT_OBS-gated obs::MetricsRegistry mirrors — so a placement
 * decision (and therefore simulated timing) is byte-identical with
 * metrics on or off. tests/place_test.cc, tests/pipeline_test.cc and
 * scripts/verify.sh hold the line.
 */

#ifndef BISCUIT_DB_COSTMODEL_H_
#define BISCUIT_DB_COSTMODEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/minidb.h"
#include "util/common.h"

namespace bisc::db {

/**
 * Per-layer service rates of one host + array system. All rates are
 * ns per unit; built by calibrateCostModel() and immutable
 * thereafter. Two calibrations of identically-configured,
 * identically-trafficked systems are field-for-field equal.
 */
struct CostCalibration
{
    // ----- device side (per drive) -----

    /** Device-CPU control ns per page streamed through the matcher
     *  (pm_control_per_page + read_issue_cost), pre-contention. */
    double dev_ctrl_ns_per_page = 0.0;

    /** Fixed device-CPU control work of one placed stage: the
     *  application lifecycle (create, instantiate, connect, start,
     *  teardown — control_op_cost each) plus the instance's dispatch
     *  latency. Dominates on a contended drive, where every control
     *  slice waits behind the co-tenants' queued work. */
    double stage_setup_ns = 0.0;

    /** Device-CPU ns per *shipped* page: dev_cm_send amortized over
     *  one page batch. The sender side of the D2H port runs on the
     *  device core, so a saturated drive pays it under contention. */
    double ship_dev_ns_per_page = 0.0;

    /** NAND channel bus ns per byte, per channel. */
    double chan_ns_per_byte = 0.0;

    /** True when chan_ns_per_byte came from observed channel busy
     *  ticks rather than the configured bandwidth prior. */
    bool chan_measured = false;

    std::uint32_t channels = 0;
    std::uint32_t device_cores = 0;

    /** Device-core slowdown versus one host core for general compute
     *  (SsdConfig::device_core_slowdown): prices an exact re-check
     *  stage run on the drive instead of the host. */
    double dev_cpu_slowdown = 1.0;

    // ----- inter-stage ports (Table II, per placement pair) -----

    /** In-drive inter-SSDlet port ns per page: scheduling + typed
     *  (de)abstraction per put(), amortized over one page batch.
     *  Charged to the device core both SSDlets share. */
    double port_intra_ns_per_page = 0.0;

    /** Host-side D2H port cost per shipped page: the receive half of
     *  the Table II decomposition (message + host_cm_recv + sched)
     *  amortized over one kPagesPerBatch-page batch. The send half is
     *  ship_dev_ns_per_page, charged to the device core. */
    double port_ns_per_page = 0.0;

    /** H2D port, host-paid half per page: host_cm_send + message,
     *  batch-amortized. */
    double h2d_host_ns_per_page = 0.0;

    /** H2D port, device-paid half per page: dev_cm_recv + sched,
     *  batch-amortized. The receive path dominates (Table II). */
    double h2d_dev_ns_per_page = 0.0;

    /** HIL DMA ns per byte crossing the link. */
    double hil_ns_per_byte = 0.0;

    // ----- host side -----

    /** Host per-I/O-request CPU ns (one streaming window). */
    double host_io_ns_per_window = 0.0;

    /**
     * Time-sharing factor on the single serializing host CPU: 1 plus
     * the host streaming tenants live anywhere on the array at
     * calibration time (a wordcount-style stream charges per-byte
     * host CPU continuously, so the query's host-side work runs at a
     * 1/host_sharing slice). Folded into host_cpu_factor and
     * host_io_ns_per_window by calibrateCostModel.
     */
    double host_sharing = 1.0;

    /** Host CPU busy-until horizon at calibration, relative to now:
     *  the queueing delay the query's first host-side charge sees.
     *  Added once to the host finish by predictPipeline. */
    Tick host_backlog = 0;

    /** Combined multiplier on stage-specific host compute rates
     *  (StageSpec::cpu_ns_per_byte of a host-placed Transform/Merge):
     *  memory-contention factor times host_sharing.
     *  host_io_ns_per_window already includes it. */
    double host_cpu_factor = 1.0;

    /** Streaming readahead window the conventional path uses. */
    Bytes stream_window = 0;

    /** One line per rate (diagnostics / determinism tests). */
    std::string describe() const;
};

/**
 * Calibrate against @p db's array and host. Reads configuration
 * constants and always-on sim accounting only (see file header).
 */
CostCalibration calibrateCostModel(MiniDb &db);

/**
 * Point-in-time load of one drive as the placer prices it. Backlogs
 * are busy-until horizons relative to "now": the wait a freshly
 * pinned SSDlet (or a fresh host stream, for chan_backlog) would see
 * before its first slice of the resource.
 */
struct DriveLoadSnapshot
{
    std::uint32_t active_apps = 0;
    std::uint32_t device_cores = 1;
    Tick min_core_backlog = 0;  ///< least-loaded core's horizon
    Tick max_core_backlog = 0;  ///< most-loaded core's horizon
    Bytes user_mem_free = 0;

    /** Host streaming reads currently in flight against this drive
     *  (HostSystem::activeStreamsOn): each shares the channel/PCIe
     *  bandwidth a new stream would otherwise own. */
    std::uint32_t host_streams = 0;

    /** Least-committed NAND channel's busy-until horizon relative to
     *  now: the queueing delay the first window of a fresh stream
     *  sees on this drive's flash interconnect. */
    Tick chan_backlog = 0;
};

/** Snapshot every drive of @p db's array, in drive order. */
std::vector<DriveLoadSnapshot> snapshotDriveLoads(MiniDb &db);

/**
 * Effective bandwidth-sharing factor a host stream pulling from this
 * drive sees: 1 (alone) plus the other live host streams plus the
 * channel demand of resident co-tenant apps (bounded by the device
 * cores that can drive the channels). The stream's channel and PCIe
 * ns/byte inflate by this factor — the host-stream contention term.
 */
double streamContention(const DriveLoadSnapshot &load);

/** What kind of work a pipeline stage does (pricing dispatch). */
enum class StageKind
{
    Scan,       ///< stream pages: matcher filter (device) / raw (host)
    Transform,  ///< per-byte compute over its input edges (re-check)
    Merge,      ///< host-side result merge (host_eligible only)
};

/** One schedulable stage of an offload graph. */
struct StageSpec
{
    std::string label;            ///< diagnostics ("scan.orders.s2")
    std::uint32_t shard = 0;      ///< shard index within the table
    StageKind kind = StageKind::Scan;
    std::uint64_t pages = 0;      ///< pages a Scan stage streams
    Bytes page_bytes = 0;

    /** Expected shipped fraction of the pages this stage *streams*
     *  (not of the whole table — a pruned stage streams only the
     *  surviving band, most of which matches). */
    double selectivity = 1.0;

    /** Transform/Merge: host-CPU ns per input byte of this stage's
     *  compute (a device placement additionally pays
     *  CostCalibration::dev_cpu_slowdown). */
    double cpu_ns_per_byte = 0.0;

    /**
     * Transform stages chained in-drive: >= 0 names the upstream
     * stage this one may colocate with. Device placement is then
     * legal only on the upstream's drive *while the upstream is
     * device-placed there* (the in-drive typed port has no cross-
     * drive flavor); the colocated pair shares one application and
     * therefore one core slot.
     */
    int colocate_with = -1;

    /** Drives that hold this stage's data (device placement is only
     *  possible where the pages physically live). */
    std::vector<std::uint32_t> eligible_drives;
    bool host_eligible = true;
    Bytes dram = 256_KiB;         ///< device DRAM demand if offloaded
};

/** A stage's assigned site. */
struct Site
{
    bool on_host = true;
    std::uint32_t drive = 0;  ///< meaningful when !on_host
};

/**
 * One inter-stage edge of a pipeline graph. Bytes are
 * placement-dependent: a device-placed Scan filters at the source
 * (only matcher-selected pages flow), a host-placed one streams its
 * whole input onward unfiltered.
 */
struct PipelineEdge
{
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    Bytes bytes = 0;       ///< estimated flow, source on a device
    Bytes bytes_host = 0;  ///< estimated flow, source on the host
};

/** A query as a DAG of stages (edges reference stage indices and
 *  always point forward: from < to). */
struct PipelineGraph
{
    std::vector<StageSpec> stages;
    std::vector<PipelineEdge> edges;

    bool empty() const { return stages.empty(); }
};

/**
 * True when stage @p i rides in its upstream's application: a
 * Transform chained in-drive (colocate_with >= 0) on the drive of its
 * device-placed upstream. The pair shares one application and core
 * slot; the rider pays no setup. The cost model's only colocation rule.
 */
bool colocated(const PipelineGraph &graph,
               const std::vector<Site> &sites, std::size_t i);

/** What one drive is asked for by a placed graph. */
struct DriveDemand
{
    std::uint32_t apps = 0;          ///< device stages not colocated
    Bytes dram = 0;                  ///< instance DRAM, every device stage
    std::uint32_t host_streams = 0;  ///< host Scans pulling from it
    Tick core_ticks = 0;             ///< unscaled device-core work
};

/** One unscaled device-core charge: a device stage's service or one
 *  end of a priced edge. */
struct CoreCharge
{
    std::uint32_t drive = 0;
    Tick ticks = 0;
};

/** A host-placed Scan: a raw stream from a drive to the host. Its
 *  host CPU terms stay unrounded; each consumer rounds them. */
struct HostScanDemand
{
    int drive = -1;         ///< source drive, -1 when outside the array
    Bytes bytes = 0;        ///< bytes delivered to the host
    double issue_ns = 0.0;  ///< host CPU issuing the stream's windows
    double cpu_ns = 0.0;    ///< the stage's own per-byte host CPU
};

/**
 * Service demand of a graph under one site assignment, before drive
 * load is applied: per-drive claims, every device-core charge, each
 * host Scan, and the rest of the host CPU work. predictPipeline
 * folds it into a makespan, the placer checks its budgets against
 * it, and a PlacementSession shows it to co-admitted queries.
 */
struct StageDemand
{
    std::vector<DriveDemand> drives;
    std::vector<CoreCharge> core;
    std::vector<HostScanDemand> host_scans;
    Tick host_ticks = 0;  ///< host Transforms, Merges and edge halves

    // Edge diagnostics: graph edges that carried priced traffic and
    // their total cost across all payers.
    std::uint32_t edges_priced = 0;
    Tick edge_ticks = 0;
};

/**
 * Fill @p out with the demand of @p graph under @p sites over an
 * array of @p drive_count drives, reusing its storage (the annealer
 * prices one assignment per step). Stage demands by kind and site: a
 * Scan streams, a Transform computes over its placement-dependent
 * input bytes, a Merge runs on the host. Every edge is priced by its
 * placement pair (Table II): same-drive device pairs pay the in-drive
 * typed port, device->host the D2H split, host->device the H2D split,
 * drive->other drive bounces through the host, host->host is free.
 * Device stages on a drive outside the array claim nothing.
 */
void stageDemand(const PipelineGraph &graph,
                 const std::vector<Site> &sites,
                 const CostCalibration &c, std::size_t drive_count,
                 StageDemand &out);

/**
 * Fold @p demand into a makespan against @p loads (one snapshot per
 * drive of the demand): each core charge is time-sliced by the
 * drive's resident apps plus the plan's own and queued behind the
 * drive's core backlog; a host Scan takes the longer of its window
 * issue and the drive's contended delivery; host work queues behind
 * the host backlog. The busiest resource's finish time rules.
 */
Tick predictPipeline(const StageDemand &demand, const CostCalibration &c,
                     const std::vector<DriveLoadSnapshot> &loads);

}  // namespace bisc::db

#endif  // BISCUIT_DB_COSTMODEL_H_
