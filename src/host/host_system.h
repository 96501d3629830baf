/**
 * @file
 * The host system model: a Xeon-class server (paper §V-A: Dell R720,
 * 2x E5-2640, 24 hardware threads) attached to the target SSD.
 *
 * The measured application thread runs on a serializing CPU resource
 * whose speed degrades with background memory load (StreamBench
 * threads, §V-C): Conv workloads slow down under load while Biscuit
 * workloads, running inside the SSD, do not — one of the paper's
 * central observations.
 *
 * The power model reproduces Fig. 9 / Table VI: system idle power plus
 * host-activity and SSD-activity components.
 */

#ifndef BISCUIT_HOST_HOST_SYSTEM_H_
#define BISCUIT_HOST_HOST_SYSTEM_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fs/file_system.h"
#include "sim/kernel.h"
#include "sim/server.h"
#include "sisc/drive_array.h"
#include "ssd/device.h"
#include "util/common.h"

namespace bisc::host {

struct HostConfig
{
    /** Hardware threads of the server (2 sockets x 12). */
    std::uint32_t hw_threads = 24;

    /**
     * Memory-contention slowdown per background StreamBench thread.
     * Calibrated so 24 threads degrade a memory-bound host scan by
     * ~1.63x (Table V: grep 12.2 s -> 19.9 s).
     */
    double contention_per_thread = 0.0263;

    /** Host CPU cost per byte for a Boyer-Moore scan (~690 MB/s). */
    double grep_ns_per_byte = 1.45;

    /** Host CPU cost per byte for DB page processing (row parse,
     *  predicate eval) — MariaDB-class engines run well below raw
     *  memory bandwidth per thread. */
    double db_scan_ns_per_byte = 4.0;

    /** Host per-I/O-request CPU cost (syscall, bio, completion). */
    Tick io_request_cpu = Tick{6300};  // 6.3 us

    /**
     * Portion of the conventional read path that is host-CPU work and
     * therefore inflates under memory load (driver + completion).
     */
    Tick io_cpu_portion = Tick{8000};  // 8 us

    // ----- Power model (Fig. 9 / Table VI) -----

    /** Whole-system idle power. */
    double idle_watts = 103.0;

    /** Added power when the host CPU side is fully busy. */
    double host_active_watts = 19.0;

    /** Added power when the SSD runs at full internal bandwidth. */
    double ssd_active_watts = 33.0;
};

/**
 * The pages of one readahead window of a host stream, in file order.
 * Views are resolved from the drive when visited and borrow its NAND
 * page store (DESIGN §5b), so a window costs no copy: a view is valid
 * until the visitor returns, and a visitor that blocks while holding
 * one must pin() it first.
 */
class StreamPages
{
  public:
    StreamPages(ssd::SsdDevice &dev, const std::vector<ftl::Lpn> &table,
                Bytes page, Bytes begin, Bytes end)
        : dev_(dev), table_(table), page_(page), begin_(begin), end_(end)
    {}

    /** Call @p fn(file_offset, view) for each page of the window; the
     *  first and last views are partial when the window is. */
    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (Bytes pos = begin_; pos < end_;) {
            const Bytes in_page = pos % page_;
            const Bytes n = std::min(page_ - in_page, end_ - pos);
            fn(pos, dev_.pageView(table_[pos / page_], in_page, n));
            pos += n;
        }
    }

  private:
    ssd::SsdDevice &dev_;
    const std::vector<ftl::Lpn> &table_;
    Bytes page_;
    Bytes begin_;
    Bytes end_;
};

/** A host stream's per-window callback: (offset, len, pages). */
using StreamFn =
    std::function<void(Bytes, Bytes, const StreamPages &)>;

class HostSystem
{
  public:
    /**
     * A host attached to a drive array: the shard router. Every read
     * names the drive it addresses.
     */
    explicit HostSystem(sisc::DriveArray &array,
                        const HostConfig &cfg = HostConfig{});

    const HostConfig &config() const { return cfg_; }
    sim::Kernel &kernel() { return kernel_; }

    /** Drives reachable from this host. */
    std::uint32_t driveCount() const { return array_.driveCount(); }

    ssd::SsdDevice &
    deviceOf(std::uint32_t drive)
    {
        return array_.drive(drive).device;
    }

    fs::FileSystem &
    fsOf(std::uint32_t drive)
    {
        return array_.drive(drive).fs;
    }

    /** The CPU resource the measured application thread runs on. */
    sim::Server &cpu() { return cpu_; }

    /**
     * Set the number of background StreamBench threads. Adjusts the
     * contention factor applied to all host CPU work.
     */
    void setLoadThreads(std::uint32_t n);

    std::uint32_t loadThreads() const { return load_threads_; }

    /** Current slowdown multiplier for host CPU work. */
    double contentionFactor() const;

    /** Charge @p work of host CPU time (scaled by contention). */
    void consumeCpu(Tick work);

    /** Charge per-byte host CPU work at @p ns_per_byte. */
    void consumeCpuPerByte(Bytes bytes, double ns_per_byte);

    /**
     * Conventional file read (Linux pread path) from drive @p drive:
     * one NVMe command per window of pages plus host-side CPU costs
     * that inflate under load. Blocks the host fiber; @p buf may be
     * null for timing-only. Returns bytes read.
     */
    Bytes pread(std::uint32_t drive, const std::string &path,
                Bytes offset, void *buf, Bytes len);

    /**
     * Streaming sequential read of a whole region of a file on drive
     * @p drive with OS readahead: I/O is overlapped with the caller's
     * compute, so the caller only blocks when the data isn't there
     * yet. @p on_window runs once per readahead window with
     * (offset, len, pages): it charges its own CPU for the window,
     * then visits the window's pages in place.
     */
    void streamRead(std::uint32_t drive, const std::string &path,
                    Bytes offset, Bytes len, Bytes window,
                    const StreamFn &on_window);

    /**
     * Timing-only variant of streamRead: the same readahead pipeline
     * (identical NVMe commands, CPU charges and blocking), but no
     * pages are handed over — @p on_window receives (offset, len) per
     * readahead window.
     */
    void streamReadTimed(std::uint32_t drive, const std::string &path,
                         Bytes offset, Bytes len, Bytes window,
                         const std::function<void(Bytes, Bytes)>
                             &on_window);

    /**
     * Host streaming reads currently in flight against drive
     * @p drive: every streaming-read entry point increments
     * the drive's counter for its duration. Pure bookkeeping — the
     * counters never charge simulated time — read by the placement
     * cost model (db/costmodel.h) to price host-stream contention:
     * concurrent streams share one drive's channel/PCIe bandwidth,
     * so each sees a proportionally deflated rate.
     */
    std::uint32_t
    activeStreamsOn(std::uint32_t drive) const
    {
        return drive < active_streams_.size()
                   ? active_streams_[drive]
                   : 0;
    }

    // ----- Power accounting -----

    /**
     * Instantaneous system power given host/SSD utilization in [0,1].
     */
    double
    power(double host_util, double ssd_util) const
    {
        return cfg_.idle_watts + host_util * cfg_.host_active_watts +
               ssd_util * cfg_.ssd_active_watts;
    }

  private:
    /** RAII depth guard for active_streams_[drive]. */
    class StreamScope
    {
      public:
        StreamScope(HostSystem &host, std::uint32_t drive);
        ~StreamScope();
        StreamScope(const StreamScope &) = delete;
        StreamScope &operator=(const StreamScope &) = delete;

      private:
        HostSystem &host_;
        std::uint32_t drive_;
    };

    sim::Kernel &kernel_;
    sisc::DriveArray &array_;
    HostConfig cfg_;
    sim::Server cpu_;
    std::uint32_t load_threads_ = 0;
    std::vector<std::uint32_t> active_streams_;
};

}  // namespace bisc::host

#endif  // BISCUIT_HOST_HOST_SYSTEM_H_
