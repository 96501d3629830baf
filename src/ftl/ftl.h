/**
 * @file
 * A page-mapped flash translation layer.
 *
 * Biscuit deliberately adds nothing to the SSD's media management: "All
 * I/O requests issued by Biscuit go through the same I/O paths with
 * normal I/O requests, and the underlying SSD firmware takes care of
 * media management tasks such as wear leveling and garbage collection"
 * (paper §VI). This module is that firmware substrate: logical pages map
 * to physical NAND pages, writes go out-of-place with striped channel
 * allocation, and a greedy garbage collector with a free-block reserve
 * reclaims invalidated space.
 *
 * Reliability duties (active only when the NAND's FaultModel is
 * enabled): program/erase failures grow bad blocks, which the FTL
 * retires — valid pages are migrated out and the block never returns to
 * the free pool; reads that needed deep ECC retries are remapped to
 * fresh blocks before they degrade into data loss; uncorrectable reads
 * surface a typed Status to the layers above instead of corrupt bytes.
 */

#ifndef BISCUIT_FTL_FTL_H_
#define BISCUIT_FTL_FTL_H_

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "nand/nand.h"
#include "obs/metrics.h"
#include "sim/buffer_pool.h"
#include "sim/kernel.h"
#include "util/common.h"
#include "util/status.h"

namespace bisc::ftl {

/** Logical page number exposed to the file system. */
using Lpn = std::uint64_t;

/** Outcome of a timed logical read. */
struct ReadResult
{
    Tick done = 0;
    Status status;

    /** ECC re-sense passes the media needed (0 = clean decode). */
    std::uint32_t retries = 0;
};

/** Outcome of a timed zero-copy logical read. */
struct ReadViewResult
{
    Tick done = 0;
    Status status;
    std::uint32_t retries = 0;

    /** The page bytes (see nand::ReadViewResult for lifetime rules). */
    sim::BufferView view;
};

/** Aggregate outcome of a vectored multi-page read. */
struct BatchReadResult
{
    /** Completion tick of the last page. */
    Tick done = 0;

    /** First non-OK page status, in command order (OK if all clean). */
    Status status;

    /** ECC re-sense passes summed across the pages. */
    std::uint32_t retries = 0;
};

struct FtlParams
{
    /**
     * Firmware cost of a read (map lookup, command dispatch).
     * Calibrated with NandTiming defaults so an internal 4 KiB read
     * completes in ~75.9 us (paper Table III).
     */
    Tick fw_read_overhead = 7 * kUsec;

    /** Firmware cost of a write (allocation, map update). */
    Tick fw_write_overhead = 12 * kUsec;

    /** Fraction of physical blocks held back as over-provisioning. */
    double overprovision = 0.07;

    /** GC kicks in when free blocks drop below this many. */
    std::uint32_t gc_reserve_blocks = 0;  // 0 = dies() (one per die)

    // ----- Reliability policy (only exercised under fault injection) --

    /**
     * A read recovered with at least this many ECC retries has its
     * page rewritten into a fresh block (read-disturb/wear refresh).
     * 0 disables retry-driven relocation.
     */
    std::uint32_t relocate_retry_threshold = 2;

    /**
     * High-retry read events charged to one block before the whole
     * block is retired (remaining valid pages migrated out).
     */
    std::uint32_t bad_block_read_events = 4;

    /**
     * Attempts to find a healthy destination page for one write before
     * declaring the device failed; each failed attempt retires a block.
     */
    std::uint32_t max_program_attempts = 8;
};

/**
 * Value snapshot of the FTL's mapping and block metadata, captured by
 * Ftl::exportImage() and replayed into a fresh Ftl of identical
 * parameters by importImage(). Holds no NAND page bytes — those live in
 * the companion nand::NandImage — so copying one per forked lane is
 * O(mapped pages) of integers, not of data.
 */
struct FtlImage
{
    struct Slot
    {
        std::vector<nand::Pbn> free;
        std::optional<nand::Pbn> active;
        std::uint32_t next_idx = 0;
    };

    std::vector<Slot> slots;
    std::uint32_t slot_cursor = 0;

    std::unordered_map<Lpn, nand::Ppn> map;
    std::unordered_map<nand::Ppn, Lpn> rev;
    std::unordered_map<nand::Pbn, std::uint32_t> valid_count;
    std::set<nand::Pbn> sealed;
    std::set<nand::Pbn> bad_blocks;
    std::unordered_map<nand::Pbn, std::uint32_t> suspect_events;

    std::uint64_t gc_runs = 0;
    std::uint64_t pages_relocated = 0;
    std::uint64_t uncorrectable = 0;
    std::uint64_t retry_relocations = 0;
    std::uint64_t blocks_retired = 0;
    std::uint64_t program_remaps = 0;
};

class Ftl
{
  public:
    Ftl(sim::Kernel &kernel, nand::NandFlash &nand,
        const FtlParams &params);

    Bytes pageSize() const { return nand_.geometry().page_size; }

    /** Number of logical pages exported (capacity minus OP). */
    std::uint64_t logicalPages() const { return logical_pages_; }

    /**
     * Timed read of @p len bytes at @p offset inside logical page
     * @p lpn. @p out may be null for timing-only probes. Unmapped
     * pages read as zeros with firmware cost only (no media access).
     * A recovered read charges retry latency and may transparently
     * remap the page; an unrecoverable read reports kUncorrectable
     * with deliberately damaged output bytes. @p earliest lower-bounds
     * the firmware start (e.g., after NVMe command fetch).
     */
    ReadResult read(Lpn lpn, Bytes offset, Bytes len,
                    std::uint8_t *out, Tick earliest = 0);

    /**
     * Zero-copy variant of read: identical timing, Status and
     * relocation policy, but the bytes come back as a BufferView
     * instead of being copied out. Clean reads borrow the NAND backing
     * store; a read that triggers relocation pins its bytes first so
     * the view survives the source block's reclamation.
     */
    ReadViewResult readView(Lpn lpn, Bytes offset, Bytes len,
                            Tick earliest = 0);

    /**
     * Vectored full-page read: @p n logical pages in one firmware
     * round trip, fanning out across NAND channels by physical
     * placement. Byte-for-byte and status-identical to n read calls
     * in the same order (same timing too — reservations are issued in
     * command order). @p out receives n * pageSize() bytes (may be
     * null); @p per_page (optional) receives each page's individual
     * outcome.
     */
    BatchReadResult readPages(const Lpn *lpns, std::size_t n,
                              std::uint8_t *out, Tick earliest = 0,
                              ReadResult *per_page = nullptr);

    /**
     * Timed full-page write (out-of-place). @p len <= pageSize();
     * the remainder of the page is zero-filled. May trigger foreground
     * garbage collection; transparently retries on program failure
     * (retiring the grown-bad block). Returns the program completion
     * tick.
     */
    Tick write(Lpn lpn, const std::uint8_t *data, Bytes len);

    /** Invalidate a logical page (TRIM). */
    void trim(Lpn lpn);

    /**
     * Zero-time population for workload setup. Panics if it would need
     * garbage collection (populate within exported capacity).
     */
    void install(Lpn lpn, const std::uint8_t *data, Bytes len);

    bool isMapped(Lpn lpn) const { return map_.count(lpn) != 0; }

    /** Physical page backing @p lpn; panics when unmapped. */
    nand::Ppn physicalOf(Lpn lpn) const;

    // Statistics.
    std::uint64_t gcRuns() const { return gc_runs_; }
    std::uint64_t pagesRelocated() const { return pages_relocated_; }
    std::uint64_t freeBlocks() const;
    std::uint64_t mappedPages() const { return map_.size(); }

    // Reliability statistics (zero while faults are disabled).
    std::uint64_t uncorrectableReads() const { return uncorrectable_; }
    std::uint64_t retryRelocations() const { return retry_relocations_; }
    std::uint64_t blocksRetired() const { return blocks_retired_; }
    std::uint64_t programFailRemaps() const { return program_remaps_; }

    /** Blocks the FTL has permanently retired as bad. */
    const std::set<nand::Pbn> &badBlocks() const { return bad_blocks_; }

    bool isBad(nand::Pbn pbn) const { return bad_blocks_.count(pbn) != 0; }

    /**
     * Structural self-check: the logical-to-physical map is a bijection
     * over live pages, no live page sits in a retired block, per-block
     * valid counts agree with the reverse map, and retired blocks are
     * out of every allocation pool. Returns false and fills @p why on
     * the first violation. Test/debug hook; O(pages).
     */
    bool auditMapping(std::string *why = nullptr) const;

    /** Max minus min per-block erase count (wear spread). */
    std::uint64_t wearSpread() const;

    nand::NandFlash &nand() { return nand_; }
    const FtlParams &params() const { return params_; }

    /**
     * Capture the mapping, allocation pools, block metadata and
     * counters as a value image. The FTL itself is unchanged.
     */
    FtlImage exportImage() const;

    /**
     * Replace this FTL's state with @p image. Only valid on a freshly
     * constructed FTL of identical geometry and parameters that has
     * served no traffic; pairs with NandFlash::adoptImage so the
     * mapping agrees with the adopted page store.
     */
    void importImage(const FtlImage &image);

  private:
    struct Slot
    {
        std::vector<nand::Pbn> free;
        std::optional<nand::Pbn> active;
        std::uint32_t next_idx = 0;
    };

    /**
     * Allocate the next physical page, round-robin across die slots.
     * @p timed allows foreground GC; untimed allocation panics instead.
     */
    nand::Ppn allocPage(bool timed);

    /**
     * Program @p len bytes into a freshly allocated page, retiring
     * grown-bad blocks and retrying until a program verifies (or
     * max_program_attempts is exhausted, which panics). Returns the
     * destination page and completion tick.
     */
    std::pair<nand::Ppn, Tick> programWithRemap(const std::uint8_t *data,
                                                Bytes len);

    /**
     * Permanently retire @p pbn: migrate its valid pages to healthy
     * blocks, drop it from every allocation pool, record it bad.
     */
    void retireBlock(nand::Pbn pbn);

    /** Rewrite @p lpn into a fresh block (wear/retry refresh). */
    void relocateLpn(Lpn lpn);

    /**
     * Reclaim one victim block (greedy: the sealed block with the
     * fewest valid pages). False, having done nothing, when no sealed
     * block holds an invalid page: there is nothing to reclaim yet.
     */
    bool gcOnce();

    /** Unmap whatever currently backs @p lpn. */
    void invalidate(Lpn lpn);

    /** Record that @p ppn now holds @p lpn. */
    void bindMapping(Lpn lpn, nand::Ppn ppn);

    /**
     * Post-read reliability policy: refresh a page that needed deep
     * ECC retries and retire its block once it keeps producing such
     * reads. No-op for clean reads or inside GC.
     */
    void maybeRelocateAfterRead(Lpn lpn, nand::Ppn ppn,
                                std::uint32_t retries);

    /** Copy the pageSize() bytes of @p ppn into @p buf (zero-padded). */
    void snapshotPage(nand::Ppn ppn, std::uint8_t *buf) const;

    std::uint64_t totalFreeBlocks() const;

    sim::Kernel &kernel_;
    nand::NandFlash &nand_;
    FtlParams params_;
    std::uint64_t logical_pages_;
    std::uint32_t gc_reserve_;

    std::vector<Slot> slots_;
    std::uint32_t slot_cursor_ = 0;

    std::unordered_map<Lpn, nand::Ppn> map_;
    std::unordered_map<nand::Ppn, Lpn> rev_;
    std::unordered_map<nand::Pbn, std::uint32_t> valid_count_;
    std::set<nand::Pbn> sealed_;
    std::set<nand::Pbn> bad_blocks_;
    std::unordered_map<nand::Pbn, std::uint32_t> suspect_events_;

    std::uint64_t gc_runs_ = 0;
    std::uint64_t pages_relocated_ = 0;
    std::uint64_t uncorrectable_ = 0;
    std::uint64_t retry_relocations_ = 0;
    std::uint64_t blocks_retired_ = 0;
    std::uint64_t program_remaps_ = 0;
    bool in_gc_ = false;

    /** Logical-to-physical map probes (every read/readView). */
    obs::Counter *map_lookups_ = nullptr;

    /** Firmware-in to media-done latency of timed reads (sim ns). */
    obs::Histogram *read_latency_hist_ = nullptr;
};

}  // namespace bisc::ftl

#endif  // BISCUIT_FTL_FTL_H_
