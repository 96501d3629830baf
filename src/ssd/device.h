/**
 * @file
 * SsdDevice: the assembled target SSD — NAND array + FTL + host
 * interface + per-channel pattern matchers + two device CPU cores.
 *
 * The device exposes the two datapaths the paper measures against each
 * other (§V-B): the *conventional* path (NVMe command in, NAND read,
 * DMA out, completion) and the *internal* path available to SSDlets
 * (firmware + NAND only — no host interface crossing), whose latency
 * and bandwidth advantages are the entire premise of Biscuit.
 */

#ifndef BISCUIT_SSD_DEVICE_H_
#define BISCUIT_SSD_DEVICE_H_

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftl/ftl.h"
#include "hil/hil.h"
#include "nand/nand.h"
#include "pm/pattern_matcher.h"
#include "sim/kernel.h"
#include "sim/server.h"
#include "sim/stats.h"
#include "ssd/config.h"
#include "util/common.h"

namespace bisc::ssd {

class SsdDevice
{
  public:
    SsdDevice(sim::Kernel &kernel, const SsdConfig &config);

    sim::Kernel &kernel() { return kernel_; }
    const SsdConfig &config() const { return config_; }
    nand::NandFlash &nand() { return *nand_; }
    ftl::Ftl &ftl() { return *ftl_; }
    hil::Hil &hil() { return *hil_; }

    /** Device CPU core @p i (SSDlet applications are pinned to one). */
    sim::Server &core(std::uint32_t i) { return *cores_.at(i); }

    std::uint32_t coreCount() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    /** The matcher IP of flash channel @p ch. */
    pm::PatternMatcher &matcher(std::uint32_t ch)
    {
        return *matchers_.at(ch);
    }

    /**
     * Publish the device's reliability and media counters into @p st
     * (absolute values under "nand." / "ftl." prefixes, qualified by
     * the drive's metrics scope — "drive2.nand.page_reads" on drive 2
     * of an array — so a multi-drive export never sums or collides
     * counters).
     * Pair with Stats::snapshot()/snapshotDelta() to assert what one
     * operation charged.
     */
    void exportStats(sim::Stats &st) const;

    // ----- Internal datapath (SSDlet-visible) -----

    /**
     * Device-internal read: firmware + NAND only. Returns completion
     * tick plus recovery status; does not block. Recovered reads have
     * already charged their retry latency; an uncorrectable read
     * reports a non-OK status with damaged output bytes.
     */
    ftl::ReadResult
    internalRead(ftl::Lpn lpn, Bytes offset, Bytes len,
                 std::uint8_t *out, Tick earliest = 0)
    {
        return ftl_->read(lpn, offset, len, out, earliest);
    }

    /**
     * Zero-copy internal read: same timing and Status as
     * internalRead, but the bytes come back as a BufferView (valid
     * until the page is next programmed or its block erased).
     */
    ftl::ReadViewResult
    internalReadView(ftl::Lpn lpn, Bytes offset, Bytes len,
                     Tick earliest = 0)
    {
        return ftl_->readView(lpn, offset, len, earliest);
    }

    /** Device-internal write. */
    Tick
    internalWrite(ftl::Lpn lpn, const std::uint8_t *data, Bytes len)
    {
        return ftl_->write(lpn, data, len);
    }

    /**
     * The channel matcher's verdict on bytes streamed off @p lpn's
     * channel (the view of an internalReadView or a pageView): loads
     * @p keys into that channel's matcher and scans, exactly as the IP
     * sees the data stream. With @p counts the result also carries
     * each hitting key's occurrences. Unmapped pages never match.
     * Timing is the caller's: a matched read costs a normal internal
     * read plus pm_control_per_page of device-CPU time.
     *
     * NAND page bytes cannot change between program and erase, so a
     * window that borrows the stored page itself (the whole page, not
     * a padded or damaged copy) is searched once per (physical page,
     * key set) and its verdict kept until the NAND write generation
     * moves. The matcher's counters count every call as a scan either
     * way.
     */
    pm::MatchResult matchView(ftl::Lpn lpn, const pm::KeySet &keys,
                              const std::uint8_t *data, Bytes len,
                              bool counts = false);

    /** Verdicts the matcher memo holds. */
    std::size_t matchMemoEntries() const { return match_memo_.size(); }

    /** matchView calls answered from the memo. */
    std::uint64_t matchMemoHits() const { return memo_hits_; }

    /**
     * Zero-time functional view of a logical page region (the bytes
     * the channel matcher would inspect): borrows the NAND backing
     * store when possible, pool-pinned zero-padded copy otherwise.
     */
    sim::BufferView pageView(ftl::Lpn lpn, Bytes offset, Bytes len);

    // ----- Conventional (host) datapath -----

    /**
     * One NVMe read command covering @p len bytes of logical page
     * @p lpn: submission, firmware+NAND, DMA to host, completion.
     * Returns the tick the host sees the completion.
     */
    Tick hostRead(ftl::Lpn lpn, Bytes offset, Bytes len,
                  std::uint8_t *out);

    /** One NVMe write command (page-sized). */
    Tick hostWrite(ftl::Lpn lpn, const std::uint8_t *data, Bytes len);

    /**
     * Multi-page NVMe read: single submission/completion pair, pages
     * fetched in parallel by the FTL and DMA'd as they arrive. @p out
     * must hold pages.size() * pageSize bytes (may be null).
     * Returns the completion tick.
     */
    Tick hostReadPages(const std::vector<ftl::Lpn> &pages,
                       std::uint8_t *out);

    // ----- Snapshot / fork -----

    /**
     * Freeze the device's functional state: the NAND page store becomes
     * an immutable shared image (the device keeps running over a COW
     * overlay) and the FTL metadata is copied into @p ftl_image. The
     * file-system layer above snapshots itself separately.
     */
    std::shared_ptr<const nand::NandImage>
    freezeState(ftl::FtlImage &ftl_image)
    {
        ftl_image = ftl_->exportImage();
        return nand_->freeze();
    }

    /**
     * Adopt a frozen state into this freshly constructed device: NAND
     * pages are shared read-only with the image (writes go to a private
     * overlay), FTL metadata is copied in. Config must match the frozen
     * device's.
     */
    void
    adoptState(std::shared_ptr<const nand::NandImage> nand_image,
               const ftl::FtlImage &ftl_image)
    {
        nand_->adoptImage(std::move(nand_image));
        ftl_->importImage(ftl_image);
    }

  private:
    /** A memoized verdict, packed to page-offset-sized fields. */
    struct MatchMemo
    {
        std::array<std::uint32_t, pm::kMaxKeys> first{};
        std::array<std::uint32_t, pm::kMaxKeys> count{};
        std::uint8_t hits = 0;  ///< bit i: key i hit
        bool counted = false;   ///< count holds the occurrences

        void pack(const pm::MatchResult &r, bool with_counts);
        /** The verdict, with counts only when @p with_counts. */
        pm::MatchResult unpack(bool with_counts) const;
    };

    /** The memo's id of @p keys (interned on first sight). */
    std::uint32_t internKeys(const pm::KeySet &keys);

    sim::Kernel &kernel_;
    SsdConfig config_;
    std::string stats_scope_;
    std::unique_ptr<nand::NandFlash> nand_;
    std::unique_ptr<ftl::Ftl> ftl_;
    std::unique_ptr<hil::Hil> hil_;
    std::vector<std::unique_ptr<sim::Server>> cores_;
    std::vector<std::unique_ptr<pm::PatternMatcher>> matchers_;

    /** Key sets seen by matchView; a set's index is its memo id. */
    std::vector<pm::KeySet> key_sets_;
    std::uint32_t last_key_set_ = 0;

    /**
     * Matcher verdicts keyed by key-set id << 40 | physical page,
     * valid while the NAND write generation equals memo_generation_.
     */
    std::unordered_map<std::uint64_t, MatchMemo> match_memo_;
    std::uint64_t memo_generation_ = 0;
    std::uint64_t memo_hits_ = 0;

    /** Per-page outcomes of the last vectored host command (scratch). */
    std::vector<ftl::ReadResult> batch_results_;

    /** Pages per vectored host read (the HIL fan-out, Fig. 6 knob). */
    obs::Histogram *batch_fanout_ = nullptr;
};

}  // namespace bisc::ssd

#endif  // BISCUIT_SSD_DEVICE_H_
