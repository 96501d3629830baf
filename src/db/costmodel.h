/**
 * @file
 * Analytic cost model for SSDlet placement (ROADMAP: "cost-model-
 * driven SSDlet placement across the array").
 *
 * Predicts the makespan of a multi-stage FBP offload graph — a
 * stage DAG (scan -> re-check -> merge for table scans and join
 * prefilters, grep and word-count pipelines) — with each stage on a
 * candidate site: a drive of the array or the host. One model prices
 * every placed workload. Three deterministic inputs:
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
 * Drive with the smallest (min_core_backlog, active_apps, index)
 * tuple — the cheapest site for a load-agnostic single-drive job
 * (the serving tier's placement-aware grep).
 */
std::uint32_t leastLoadedDrive(
    const std::vector<DriveLoadSnapshot> &loads);

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

/** Who pays what for one priced edge. */
struct EdgeCost
{
    Tick src_core = 0;  ///< device core of the producing stage
    Tick dst_core = 0;  ///< device core of the consuming stage
    Tick host = 0;      ///< host CPU share
};

/**
 * Price @p bytes crossing from @p src to @p dst (Table II, by
 * placement pair): same-drive device pairs pay the in-drive typed
 * port; device->host the D2H split; host->device the H2D split;
 * drive->other-drive bounces through the host (D2H + H2D);
 * host->host is free.
 */
EdgeCost priceEdge(Bytes bytes, Bytes page_bytes, const Site &src,
                   const Site &dst, const CostCalibration &c);

/** Per-edge/diagnostic breakdown of one pipeline prediction. */
struct PipelinePrediction
{
    Tick makespan = 0;
    Tick edge_ticks = 0;           ///< total priced edge cost
    std::uint32_t edges_priced = 0;
};

/**
 * Predicted makespan of a full pipeline graph under @p sites: stage
 * service demands by kind (Scan streams, Transform computes over its
 * placement-dependent input bytes, Merge runs on the host), plus
 * every edge priced by its placement pair, charged to the resource
 * that pays it. Colocated device pairs skip the second application
 * setup. The busiest resource's finish time rules.
 */
PipelinePrediction predictPipeline(
    const PipelineGraph &graph, const std::vector<Site> &sites,
    const CostCalibration &c,
    const std::vector<DriveLoadSnapshot> &loads);

/** Bytes arriving at stage @p i of @p graph given @p sites (the sum
 *  of its in-edges' placement-dependent flows). */
Bytes stageInBytes(const PipelineGraph &graph,
                   const std::vector<Site> &sites, std::uint32_t i);

}  // namespace bisc::db

#endif  // BISCUIT_DB_COSTMODEL_H_
