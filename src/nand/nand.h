/**
 * @file
 * NandFlash: functional + timing model of the SSD's NAND array.
 *
 * Data plane: pages hold real bytes (sparse map, so multi-GiB logical
 * capacity costs only what is actually written). Timing plane: each die
 * is a serializing media resource (tR / tPROG / tBERS) and each channel
 * a serializing bus; a page read pipelines media then bus, so multi-page
 * requests naturally overlap across channels and ways.
 *
 * Reliability plane (off by default): a seed-deterministic FaultModel
 * injects raw bit errors (growing with block P/E count), program/erase
 * failures and die/channel stalls. The read datapath runs an ECC model
 * against the injected errors: a decode within the correctable budget
 * returns the exact programmed bytes; a failed decode re-senses up to
 * max_read_retries times (each retry charges media latency); exhausting
 * retries yields ErrCode::kUncorrectable together with deliberately
 * damaged output bytes, so callers that ignore the status are caught by
 * checksums instead of silently reading garbage that happens to match.
 */

#ifndef BISCUIT_NAND_NAND_H_
#define BISCUIT_NAND_NAND_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nand/fault.h"
#include "nand/geometry.h"
#include "sim/buffer_pool.h"
#include "sim/kernel.h"
#include "sim/server.h"
#include "util/common.h"
#include "util/status.h"

namespace bisc::nand {

/** Outcome of a timed page read: completion tick + recovery detail. */
struct ReadResult
{
    Tick done = 0;
    Status status;

    /** ECC re-sense passes this read needed (0 = clean decode). */
    std::uint32_t retries = 0;
};

/** Outcome of a timed program/erase operation. */
struct OpResult
{
    Tick done = 0;
    Status status;
};

/** Outcome of a timed zero-copy page read. */
struct ReadViewResult
{
    Tick done = 0;
    Status status;

    /** ECC re-sense passes this read needed (0 = clean decode). */
    std::uint32_t retries = 0;

    /**
     * The page bytes: a borrow of the backing store on the clean path
     * (valid until the page is reprogrammed or its block erased), a
     * pinned pool copy when the fault model damaged the data or the
     * stored page is shorter than the request.
     */
    sim::BufferView view;
};

/**
 * An immutable snapshot of the NAND array's functional state. Frozen
 * once, then shared read-only between the source device and any number
 * of forked devices: the page bytes are never mutated after freeze(),
 * so concurrent forks may read them from different threads without
 * synchronization, and borrowed BufferViews into them stay valid for
 * the image's lifetime (map nodes are address-stable).
 */
struct NandImage
{
    std::unordered_map<Ppn, std::vector<std::uint8_t>> pages;
    std::unordered_map<Pbn, std::uint64_t> erase_counts;

    /** Fault-injector RNG position at freeze time. */
    std::array<std::uint64_t, 4> fault_rng{};

    // Aggregate + reliability counters at freeze time, restored into
    // forks so stat deltas match an uninterrupted serial run.
    std::uint64_t page_reads = 0;
    std::uint64_t page_writes = 0;
    std::uint64_t block_erases = 0;
    Bytes bytes_read = 0;
    std::uint64_t read_retries = 0;
    std::uint64_t ecc_corrected = 0;
    std::uint64_t uncorrectable = 0;
    std::uint64_t program_fails = 0;
    std::uint64_t erase_fails = 0;
    std::uint64_t die_stalls = 0;
    std::uint64_t channel_stalls = 0;
};

class NandFlash
{
  public:
    NandFlash(sim::Kernel &kernel, const Geometry &geo,
              const NandTiming &timing,
              const FaultConfig &faults = FaultConfig{},
              const EccConfig &ecc = EccConfig{});

    const Geometry &geometry() const { return geo_; }
    const NandTiming &timing() const { return timing_; }
    const EccConfig &ecc() const { return ecc_; }
    FaultModel &faults() { return fault_; }

    /**
     * Read @p len bytes at @p offset within page @p ppn into @p out
     * (may be null for timing-only probes). Returns the completion
     * tick plus the recovery status; the caller sleeps until the tick
     * for a synchronous read. Unwritten pages read as zeros (erased
     * flash, no ECC evaluation). @p earliest lower-bounds the media
     * start (e.g., after firmware dispatch).
     */
    ReadResult readPage(Ppn ppn, Bytes offset, Bytes len,
                        std::uint8_t *out, Tick earliest = 0);

    /**
     * Zero-copy variant of readPage: identical timing, ECC behavior
     * and Status, but instead of copying into a caller buffer the
     * result carries a BufferView of the bytes. Clean reads of fully
     * covered pages borrow the backing store directly; unwritten pages
     * view a shared zero page; only a fault or a short stored page
     * pins a pool buffer.
     */
    ReadViewResult readPageView(Ppn ppn, Bytes offset, Bytes len,
                                Tick earliest = 0);

    /**
     * Program page @p ppn with @p len bytes (rest of the page zero).
     * Programming an already-programmed page is an FTL bug and panics.
     * A program failure charges the full attempt latency, installs
     * nothing and reports ErrCode::kProgramFail.
     */
    OpResult programPage(Ppn ppn, const std::uint8_t *data, Bytes len,
                         Tick earliest = 0);

    /**
     * Erase block @p pbn, clearing all of its pages. An erase failure
     * charges the attempt latency, leaves the block contents intact
     * (so valid pages can still be migrated) and reports
     * ErrCode::kEraseFail.
     */
    OpResult eraseBlock(Pbn pbn, Tick earliest = 0);

    /** True if @p ppn has been programmed since its last erase. */
    bool isProgrammed(Ppn ppn) const { return lookupPage(ppn) != nullptr; }

    // ----- Snapshot / fork -----

    /**
     * Freeze the array's functional state into an immutable, shareable
     * image. The device keeps working afterwards: its page store
     * becomes the frozen image plus a private copy-on-write overlay
     * (writes land in the overlay; erases of frozen pages are recorded
     * as tombstones), so no page bytes are copied either here or in
     * any fork. Counters and the fault RNG position are captured so a
     * fork behaves exactly like the frozen device.
     */
    std::shared_ptr<const NandImage> freeze();

    /**
     * Adopt @p image as this array's backing state. Only valid on a
     * freshly constructed device of identical geometry that has never
     * been written. Restores counters and the fault RNG position from
     * the image; subsequent writes go to this device's private
     * overlay, leaving the image untouched.
     */
    void adoptImage(std::shared_ptr<const NandImage> image);

    /** Pages served by the shared frozen image (0 when not forked). */
    std::size_t
    basePages() const
    {
        return base_ == nullptr ? 0 : base_->pages.size();
    }

    /**
     * Pages this device holds privately: the COW overlay of a forked
     * device (the whole store when not forked).
     */
    std::size_t overlayPages() const { return pages_.size(); }

    /**
     * Bumped by everything that can change the bytes stored at a
     * physical page or the page store holding them: installPage (so
     * every program), a successful erase, freeze and adoptImage. A
     * result derived from stored bytes stays valid while it is
     * unchanged.
     */
    std::uint64_t writeGeneration() const { return write_generation_; }

    /** Erase cycles endured by block @p pbn. */
    std::uint64_t
    eraseCount(Pbn pbn) const
    {
        auto it = erase_counts_.find(pbn);
        return it == erase_counts_.end() ? 0 : it->second;
    }

    /**
     * Zero-time data installation used by workload population (setup
     * phases that the paper performs offline). Overwrites silently;
     * timed traffic must use programPage/eraseBlock instead.
     */
    void installPage(Ppn ppn, const std::uint8_t *data, Bytes len);

    /** Direct read-only view of a page's bytes; nullptr if unwritten. */
    const std::vector<std::uint8_t> *peekPage(Ppn ppn) const;

    /**
     * Zero-time functional view of @p len bytes at @p offset of page
     * @p ppn (no timing, no ECC): borrows the backing store when it
     * covers the request, else a zero-padded pool copy. Unwritten
     * pages view the shared zero page.
     */
    sim::BufferView peekView(Ppn ppn, Bytes offset, Bytes len);

    /** A view of @p len zero bytes (erased-flash semantics). */
    sim::BufferView zeroView(Bytes len);

    /** The page-sized buffer pool backing the zero-copy data path. */
    sim::BufferPool &bufferPool() { return pool_; }

    // Aggregate statistics.
    std::uint64_t pageReads() const { return page_reads_; }
    std::uint64_t pageWrites() const { return page_writes_; }
    std::uint64_t blockErases() const { return block_erases_; }
    Bytes bytesRead() const { return bytes_read_; }

    // Reliability statistics (all zero while faults are disabled).
    std::uint64_t readRetries() const { return read_retries_; }
    std::uint64_t eccCorrectedPages() const { return ecc_corrected_; }
    std::uint64_t uncorrectableReads() const { return uncorrectable_; }
    std::uint64_t programFails() const { return program_fails_; }
    std::uint64_t eraseFails() const { return erase_fails_; }
    std::uint64_t dieStalls() const { return die_stalls_; }
    std::uint64_t channelStalls() const { return channel_stalls_; }

    /** Busy time of channel @p ch's bus (utilization probes). */
    Tick channelBusyTicks(std::uint32_t ch) const
    {
        return channels_[ch]->busyTicks();
    }

    /**
     * Absolute tick until which channel @p ch's bus is already
     * committed (busy-until horizon). A placement engine subtracts
     * "now" to price the queueing delay a new stream would see on a
     * contended channel; an idle channel reports a horizon at or
     * before now.
     */
    Tick channelBusyUntil(std::uint32_t ch) const
    {
        return channels_[ch]->busyUntil();
    }

    /**
     * Aggregate raw read bandwidth across all channels in bytes/s
     * (the SSD-internal bandwidth ceiling an NDP program can tap).
     */
    double
    aggregateChannelBw() const
    {
        return timing_.channel_bw * geo_.channels;
    }

  private:
    /**
     * The shared timing/ECC core of every page read: reserves media,
     * runs the re-sense loop, reserves the bus, fills @p r and flags
     * @p uncorrectable. Returns the stored page (nullptr if unwritten)
     * so the caller can copy or view it.
     */
    const std::vector<std::uint8_t> *timedRead(Ppn ppn, Bytes offset,
                                               Bytes len, Tick earliest,
                                               ReadResult &r,
                                               bool &uncorrectable);

    /**
     * The stored bytes of @p ppn across overlay, tombstones and the
     * frozen base image; nullptr when the page reads as erased.
     */
    const std::vector<std::uint8_t> *lookupPage(Ppn ppn) const;

    sim::Server &dieServer(Ppn ppn) { return *dies_[geo_.slotOf(ppn)]; }

    sim::Server &
    channelServer(Ppn ppn)
    {
        return *channels_[geo_.channelOf(ppn)];
    }

    sim::Kernel &kernel_;
    Geometry geo_;
    NandTiming timing_;
    EccConfig ecc_;
    FaultModel fault_;

    std::vector<std::unique_ptr<sim::Server>> dies_;
    std::vector<std::unique_ptr<sim::Server>> channels_;

    /**
     * Private page store. Without a base image it is the whole array;
     * with one it is the copy-on-write overlay and wins over the base.
     */
    std::unordered_map<Ppn, std::vector<std::uint8_t>> pages_;
    std::unordered_map<Pbn, std::uint64_t> erase_counts_;

    /** Shared frozen page store (null until freeze/adopt). */
    std::shared_ptr<const NandImage> base_;

    /** Base pages erased since the fork (read as unwritten). */
    std::unordered_set<Ppn> dead_;

    sim::BufferPool pool_;
    std::vector<std::uint8_t> zero_page_;

    std::uint64_t page_reads_ = 0;
    std::uint64_t page_writes_ = 0;
    std::uint64_t block_erases_ = 0;
    Bytes bytes_read_ = 0;

    std::uint64_t read_retries_ = 0;
    std::uint64_t ecc_corrected_ = 0;
    std::uint64_t uncorrectable_ = 0;
    std::uint64_t program_fails_ = 0;
    std::uint64_t erase_fails_ = 0;
    std::uint64_t die_stalls_ = 0;
    std::uint64_t channel_stalls_ = 0;

    std::uint64_t write_generation_ = 0;

    /** Request-to-done latency of every timed page read (sim ns). */
    obs::Histogram *read_latency_hist_ = nullptr;
};

}  // namespace bisc::nand

#endif  // BISCUIT_NAND_NAND_H_
