#include "db/costmodel.h"

#include <algorithm>
#include <cstdio>

#include "db/executor.h"
#include "host/host_system.h"
#include "nand/nand.h"
#include "sisc/drive_array.h"
#include "ssd/config.h"

namespace bisc::db {

namespace {

/** Standing host-CPU share of one live streaming tenant: a stream
 *  alternates per-window CPU bursts with waits on the drive, so it
 *  occupies the serializing host CPU for only part of its lifetime.
 *  Calibrated against fig_pipeline's word-count co-tenants. */
constexpr double kHostStreamDuty = 0.25;

/** Port-message units @p bytes occupy at @p page_bytes per page. */
double
edgeUnits(Bytes bytes, Bytes page_bytes)
{
    if (page_bytes == 0)
        return 0.0;
    return static_cast<double>(divCeil<Bytes>(bytes, page_bytes));
}

/** Drive-side elapsed of a host stream pulling @p bytes from the
 *  drive @p load describes: queue behind the least-committed
 *  channel, then move the bytes at the contention-deflated
 *  channel + PCIe rate. */
Tick
hostStreamIoTicks(Bytes bytes, const CostCalibration &c,
                  const DriveLoadSnapshot &load)
{
    const double per_byte =
        c.chan_ns_per_byte / std::max<std::uint32_t>(1, c.channels) +
        c.hil_ns_per_byte;
    return load.chan_backlog +
           static_cast<Tick>(static_cast<double>(bytes) * per_byte *
                             streamContention(load));
}

}  // namespace

std::string
CostCalibration::describe() const
{
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "dev_ctrl=%.0fns/page setup=%.0fns ship=%.0fns/page "
        "chan=%.3fns/B%s x%u cores=%u slow=%.1fx "
        "port=%.0fns/page intra=%.0fns/page "
        "h2d=%.0f+%.0fns/page hil=%.3fns/B host_cpu=%.2fx "
        "host_io=%.0fns/win host_share=%.1fx host_backlog=%llu "
        "window=%llu",
        dev_ctrl_ns_per_page, stage_setup_ns, ship_dev_ns_per_page,
        chan_ns_per_byte,
        chan_measured ? "(meas)" : "(cfg)", channels, device_cores,
        dev_cpu_slowdown,
        port_ns_per_page, port_intra_ns_per_page,
        h2d_host_ns_per_page, h2d_dev_ns_per_page,
        hil_ns_per_byte, host_cpu_factor,
        host_io_ns_per_window, host_sharing,
        static_cast<unsigned long long>(host_backlog),
        static_cast<unsigned long long>(stream_window));
    return buf;
}

CostCalibration
calibrateCostModel(MiniDb &db)
{
    CostCalibration c;
    const ssd::SsdConfig &cfg = db.env().device.config();
    const host::HostConfig &hcfg = db.host().config();

    c.dev_ctrl_ns_per_page =
        static_cast<double>(cfg.pm_control_per_page) +
        static_cast<double>(cfg.read_issue_cost);
    // Application lifecycle of one placed stage: create, instantiate,
    // connect, start and teardown each cost one runtime control op on
    // a device core, plus the instance's fiber dispatch latency.
    c.stage_setup_ns =
        5.0 * static_cast<double>(cfg.control_op_cost) +
        static_cast<double>(cfg.sched_latency);
    c.channels = cfg.geometry.channels;
    c.device_cores = cfg.device_cores;
    c.dev_cpu_slowdown = cfg.device_core_slowdown;

    // Channel rate: prior from the configured bus bandwidth, refined
    // from drive 0's always-on NAND accounting once enough real pages
    // have flowed to average out command overheads. Both inputs are
    // deterministic functions of the simulation history.
    c.chan_ns_per_byte = 1.0e9 / cfg.nand_timing.channel_bw;
    nand::NandFlash &nand = db.env().device.nand();
    if (nand.pageReads() >= 64 && nand.bytesRead() > 0) {
        Tick busy = 0;
        for (std::uint32_t ch = 0; ch < c.channels; ++ch)
            busy += nand.channelBusyTicks(ch);
        if (busy > 0) {
            c.chan_ns_per_byte =
                static_cast<double>(busy) /
                static_cast<double>(nand.bytesRead());
            c.chan_measured = true;
        }
    }

    // Port decompositions (Table II), split by who pays and amortized
    // over one page batch. D2H: the device core sends (dev_cm_send),
    // the host receives (message + host_cm_recv + sched). H2D: the
    // host sends (host_cm_send + message), the device core receives
    // (dev_cm_recv + sched) — the receive path dominates. In-drive
    // inter-SSDlet puts pay scheduling + typed (de)abstraction on the
    // shared device core.
    c.ship_dev_ns_per_page =
        static_cast<double>(cfg.dev_cm_send) / kPagesPerBatch;
    c.port_ns_per_page =
        static_cast<double>(cfg.host_cm_recv + cfg.sched_latency +
                            cfg.hil_params.message_latency) /
        kPagesPerBatch;
    c.port_intra_ns_per_page =
        static_cast<double>(cfg.sched_latency +
                            cfg.type_abstraction) /
        kPagesPerBatch;
    c.h2d_host_ns_per_page =
        static_cast<double>(cfg.host_cm_send +
                            cfg.hil_params.message_latency) /
        kPagesPerBatch;
    c.h2d_dev_ns_per_page =
        static_cast<double>(cfg.dev_cm_recv + cfg.sched_latency) /
        kPagesPerBatch;
    c.hil_ns_per_byte = 1.0e9 / cfg.hil_params.pcie_bw;

    // Host CPU contention: the memory-load factor (StreamBench
    // threads) times the time-sharing slice live streaming tenants
    // leave for the query — each in-flight host stream charges
    // per-byte CPU continuously on the one serializing host CPU.
    std::uint32_t live_streams = 0;
    for (std::uint32_t k = 0; k < db.host().driveCount(); ++k)
        live_streams += db.host().activeStreamsOn(k);
    c.host_sharing =
        1.0 + kHostStreamDuty * static_cast<double>(live_streams);
    c.host_cpu_factor =
        db.host().contentionFactor() * c.host_sharing;
    c.host_io_ns_per_window =
        static_cast<double>(hcfg.io_request_cpu) * c.host_cpu_factor;
    const Tick cpu_free = db.host().cpu().busyUntil();
    const Tick now = db.env().kernel.now();
    c.host_backlog = cpu_free > now ? cpu_free - now : 0;
    c.stream_window = 1_MiB;
    return c;
}

std::vector<DriveLoadSnapshot>
snapshotDriveLoads(MiniDb &db)
{
    sisc::DriveArray &array = db.env().array;
    const Tick now = db.env().kernel.now();
    std::vector<DriveLoadSnapshot> out;
    out.reserve(array.driveCount());
    for (std::uint32_t k = 0; k < array.driveCount(); ++k) {
        const sisc::DriveLoad load = array.loadOf(k);
        DriveLoadSnapshot s;
        s.active_apps = load.active_apps;
        s.device_cores = std::max<std::uint32_t>(1, load.device_cores);
        s.min_core_backlog =
            load.min_core_busy_until > now
                ? load.min_core_busy_until - now
                : 0;
        s.max_core_backlog =
            load.max_core_busy_until > now
                ? load.max_core_busy_until - now
                : 0;
        s.user_mem_free =
            load.user_mem_capacity > load.user_mem_used
                ? load.user_mem_capacity - load.user_mem_used
                : 0;
        s.host_streams = db.host().activeStreamsOn(k);
        s.chan_backlog =
            load.min_chan_busy_until > now
                ? load.min_chan_busy_until - now
                : 0;
        out.push_back(s);
    }
    return out;
}

double
streamContention(const DriveLoadSnapshot &load)
{
    // Co-tenant demand on the drive's channels: every other live host
    // stream is a full peer; resident apps can drive at most one
    // stream's worth of channel traffic per device core actually
    // occupied (a core-limited co-tenant fleet does not saturate the
    // interconnect no matter how many apps queue behind the cores).
    const double tenants = static_cast<double>(
        std::min<std::uint32_t>(load.active_apps, load.device_cores));
    return 1.0 + static_cast<double>(load.host_streams) + tenants;
}

namespace {

/** Who pays what for one priced edge. */
struct EdgeCost
{
    Tick src_core = 0;  ///< device core of the producing stage
    Tick dst_core = 0;  ///< device core of the consuming stage
    Tick host = 0;      ///< host CPU share
};

/** Price @p bytes crossing from @p src to @p dst by placement pair
 *  (Table II). */
EdgeCost
priceEdge(Bytes bytes, Bytes page_bytes, const Site &src,
          const Site &dst, const CostCalibration &c)
{
    EdgeCost ec;
    if (bytes == 0)
        return ec;
    const double units = edgeUnits(bytes, page_bytes);
    const double hil = static_cast<double>(bytes) * c.hil_ns_per_byte;
    if (src.on_host && dst.on_host)
        return ec;  // same address space: free
    if (!src.on_host && !dst.on_host && src.drive == dst.drive) {
        // In-drive typed port between two SSDlets of one application:
        // both ends run on the shared device core.
        ec.src_core = static_cast<Tick>(units *
                                        c.port_intra_ns_per_page);
        return ec;
    }
    if (!src.on_host) {
        // D2H leg (also the first hop of a drive-to-drive bounce).
        ec.src_core += static_cast<Tick>(units *
                                         c.ship_dev_ns_per_page);
        ec.host +=
            static_cast<Tick>(units * c.port_ns_per_page + hil);
    }
    if (!dst.on_host) {
        // H2D leg (second hop of a bounce, or a host-fed SSDlet).
        ec.host +=
            static_cast<Tick>(units * c.h2d_host_ns_per_page + hil);
        ec.dst_core += static_cast<Tick>(units *
                                         c.h2d_dev_ns_per_page);
    }
    return ec;
}

/** Bytes arriving at stage @p i given @p sites: the sum of its
 *  in-edges' placement-dependent flows. */
Bytes
stageInBytes(const PipelineGraph &graph,
             const std::vector<Site> &sites, std::uint32_t i)
{
    Bytes total = 0;
    for (const PipelineEdge &e : graph.edges) {
        if (e.to != i)
            continue;
        total += sites.at(e.from).on_host ? e.bytes_host : e.bytes;
    }
    return total;
}

}  // namespace

bool
colocated(const PipelineGraph &graph, const std::vector<Site> &sites,
          std::size_t i)
{
    const StageSpec &s = graph.stages[i];
    if (s.kind != StageKind::Transform || s.colocate_with < 0 ||
        sites[i].on_host)
        return false;
    const Site &up = sites[static_cast<std::size_t>(s.colocate_with)];
    return !up.on_host && up.drive == sites[i].drive;
}

void
stageDemand(const PipelineGraph &graph, const std::vector<Site> &sites,
            const CostCalibration &c, std::size_t drive_count,
            StageDemand &out)
{
    BISC_ASSERT(graph.stages.size() == sites.size(),
                "stage/site arity mismatch in stageDemand");
    out.drives.assign(drive_count, DriveDemand{});
    out.core.clear();
    out.host_scans.clear();
    out.host_ticks = 0;
    out.edges_priced = 0;
    out.edge_ticks = 0;
    auto chargeCore = [&out](std::uint32_t d, Tick ticks) {
        out.core.push_back(CoreCharge{d, ticks});
        out.drives[d].core_ticks += ticks;
    };

    for (std::size_t i = 0; i < graph.stages.size(); ++i) {
        const StageSpec &s = graph.stages[i];
        const Site &site = sites[i];
        const auto idx = static_cast<std::uint32_t>(i);
        // A Scan may carry its own per-byte compute (cpu_ns_per_byte
        // > 0: the grep tally / word-count tokenizer folded into the
        // streaming stage). A host scan touches every streamed byte;
        // a device scan only the matcher-selected fraction. DB scans
        // leave it at 0. A Merge has no device flavor.
        if (site.on_host || s.kind == StageKind::Merge) {
            if (s.kind != StageKind::Scan) {
                out.host_ticks += static_cast<Tick>(
                    static_cast<double>(
                        stageInBytes(graph, sites, idx)) *
                    s.cpu_ns_per_byte * c.host_cpu_factor);
                continue;
            }
            // Raw stream to the host: window-issue CPU against the
            // drive's delivery. The per-byte filter CPU belongs to
            // the downstream Transform (which sees the full bytes
            // host-side).
            HostScanDemand scan;
            scan.bytes = s.pages * s.page_bytes;
            const std::uint64_t windows =
                c.stream_window == 0
                    ? 0
                    : divCeil<Bytes>(scan.bytes, c.stream_window);
            scan.issue_ns = static_cast<double>(windows) *
                            c.host_io_ns_per_window;
            scan.cpu_ns = static_cast<double>(scan.bytes) *
                          s.cpu_ns_per_byte * c.host_cpu_factor;
            if (!s.eligible_drives.empty() &&
                s.eligible_drives.front() < drive_count) {
                scan.drive = static_cast<int>(s.eligible_drives.front());
                ++out.drives[s.eligible_drives.front()].host_streams;
            }
            out.host_scans.push_back(scan);
            continue;
        }
        const std::uint32_t d = site.drive;
        if (d >= drive_count)
            continue;
        const bool rides = colocated(graph, sites, i);
        out.drives[d].apps += rides ? 0 : 1;
        out.drives[d].dram += s.dram;
        if (s.kind == StageKind::Scan) {
            // Matcher scan on the drive; shipping is priced by the
            // stage's out-edges, not here.
            const double ctrl = c.dev_ctrl_ns_per_page;
            const double stream =
                static_cast<double>(s.page_bytes) * c.chan_ns_per_byte /
                std::max<std::uint32_t>(1, c.channels);
            const double selected_bytes =
                static_cast<double>(s.pages * s.page_bytes) *
                std::min(1.0, std::max(0.0, s.selectivity));
            chargeCore(d, static_cast<Tick>(
                              c.stage_setup_ns +
                              static_cast<double>(s.pages) *
                                  std::max(ctrl, stream) +
                              selected_bytes * s.cpu_ns_per_byte *
                                  c.dev_cpu_slowdown));
        } else {
            const double setup = rides ? 0.0 : c.stage_setup_ns;
            chargeCore(d, static_cast<Tick>(
                              setup +
                              static_cast<double>(
                                  stageInBytes(graph, sites, idx)) *
                                  s.cpu_ns_per_byte *
                                  c.dev_cpu_slowdown));
        }
    }

    // Inter-stage edges, priced by placement pair and charged to the
    // resources that pay them.
    for (const PipelineEdge &e : graph.edges) {
        const Site &src = sites.at(e.from);
        const Site &dst = sites.at(e.to);
        const Bytes flow = src.on_host ? e.bytes_host : e.bytes;
        const EdgeCost ec = priceEdge(
            flow, graph.stages[e.from].page_bytes, src, dst, c);
        if (ec.src_core > 0 && src.drive < drive_count)
            chargeCore(src.drive, ec.src_core);
        if (ec.dst_core > 0 && dst.drive < drive_count)
            chargeCore(dst.drive, ec.dst_core);
        out.host_ticks += ec.host;
        const Tick total = ec.src_core + ec.dst_core + ec.host;
        if (total > 0) {
            ++out.edges_priced;
            out.edge_ticks += total;
        }
    }
}

Tick
predictPipeline(const StageDemand &demand, const CostCalibration &c,
                const std::vector<DriveLoadSnapshot> &loads)
{
    BISC_ASSERT(demand.drives.size() == loads.size(),
                "drive arity mismatch in predictPipeline");

    // A host Scan takes the longer of its window-issue CPU and the
    // drive's contended delivery, plus its own per-byte CPU.
    Tick host = demand.host_ticks;
    for (const HostScanDemand &scan : demand.host_scans) {
        Tick elapsed = static_cast<Tick>(scan.issue_ns);
        if (scan.drive >= 0)
            elapsed = std::max(
                elapsed,
                hostStreamIoTicks(
                    scan.bytes, c,
                    loads[static_cast<std::size_t>(scan.drive)]));
        host += elapsed + static_cast<Tick>(scan.cpu_ns);
    }
    Tick makespan = host > 0 ? c.host_backlog + host : 0;

    // Each core charge is time-sliced by the drive's application
    // population, the resident apps plus this plan's own.
    for (std::uint32_t d = 0; d < loads.size(); ++d) {
        const double sharing = std::max(
            1.0, static_cast<double>(loads[d].active_apps +
                                     demand.drives[d].apps) /
                     static_cast<double>(loads[d].device_cores));
        Tick finish = 0;
        for (const CoreCharge &charge : demand.core) {
            if (charge.drive == d)
                finish += static_cast<Tick>(
                    static_cast<double>(charge.ticks) * sharing);
        }
        if (finish > 0)
            makespan =
                std::max(makespan, loads[d].min_core_backlog + finish);
    }
    return makespan;
}

}  // namespace bisc::db
