#include "ssd/device.h"

#include <algorithm>
#include <cstdint>

namespace bisc::ssd {

namespace {

/** Physical pages the memo key can name (its low 40 bits). */
constexpr std::uint64_t kMemoPageBits = 40;

/** Key sets interned before the memo starts over. */
constexpr std::size_t kMaxKeySets = 1024;

}  // namespace

SsdDevice::SsdDevice(sim::Kernel &kernel, const SsdConfig &config)
    : kernel_(kernel), config_(config),
      stats_scope_(kernel.obs().metrics().scope())
{
    nand_ = std::make_unique<nand::NandFlash>(kernel_, config_.geometry,
                                              config_.nand_timing,
                                              config_.fault, config_.ecc);
    ftl_ = std::make_unique<ftl::Ftl>(kernel_, *nand_,
                                      config_.ftl_params);
    hil_ = std::make_unique<hil::Hil>(kernel_, config_.hil_params);
    for (std::uint32_t i = 0; i < config_.device_cores; ++i) {
        cores_.push_back(std::make_unique<sim::Server>(
            kernel_, "devcore" + std::to_string(i)));
    }
    for (std::uint32_t c = 0; c < config_.geometry.channels; ++c)
        matchers_.push_back(std::make_unique<pm::PatternMatcher>());
    BISC_ASSERT(config_.geometry.totalPages() <= 1ull << kMemoPageBits &&
                    config_.geometry.page_size <= UINT32_MAX,
                "geometry exceeds the matcher memo's key and fields");
    batch_fanout_ = &kernel_.obs().metrics().histogram(
        "hil.batch_fanout", "pages", obs::Histogram::depthBounds());
}

void
SsdDevice::MatchMemo::pack(const pm::MatchResult &r, bool with_counts)
{
    for (std::size_t i = 0; i < pm::kMaxKeys; ++i) {
        if (!r.hit[i])
            continue;
        hits |= static_cast<std::uint8_t>(1u << i);
        first[i] = static_cast<std::uint32_t>(r.first_offset[i]);
        count[i] = static_cast<std::uint32_t>(r.count[i]);
    }
    counted = with_counts;
}

pm::MatchResult
SsdDevice::MatchMemo::unpack(bool with_counts) const
{
    pm::MatchResult r;
    r.any = hits != 0;
    for (std::size_t i = 0; i < pm::kMaxKeys; ++i) {
        r.hit[i] = (hits >> i & 1u) != 0;
        r.first_offset[i] = first[i];
        if (with_counts)
            r.count[i] = count[i];
    }
    return r;
}

std::uint32_t
SsdDevice::internKeys(const pm::KeySet &keys)
{
    // Scan loops match page after page with one key set, so the last
    // set asked for is nearly always the one asked for again.
    if (last_key_set_ < key_sets_.size() &&
        key_sets_[last_key_set_].keys() == keys.keys())
        return last_key_set_;
    for (std::size_t i = 0; i < key_sets_.size(); ++i) {
        if (key_sets_[i].keys() == keys.keys()) {
            last_key_set_ = static_cast<std::uint32_t>(i);
            return last_key_set_;
        }
    }
    if (key_sets_.size() == kMaxKeySets) {
        key_sets_.clear();
        match_memo_.clear();
    }
    key_sets_.push_back(keys);
    last_key_set_ = static_cast<std::uint32_t>(key_sets_.size() - 1);
    return last_key_set_;
}

pm::MatchResult
SsdDevice::matchView(ftl::Lpn lpn, const pm::KeySet &keys,
                     const std::uint8_t *data, Bytes len, bool counts)
{
    if (!ftl_->isMapped(lpn))
        return pm::MatchResult{};
    nand::Ppn ppn = ftl_->physicalOf(lpn);
    auto &ip = matcher(config_.geometry.channelOf(ppn));
    ip.configure(keys);

    // Only the stored page itself is memoized: a padded or damaged
    // pool copy, a partial window and the old bytes of a page the FTL
    // relocated mid-read are searched as they are.
    const auto *page = nand_->peekPage(ppn);
    if (page == nullptr || data != page->data() || len != page->size())
        return ip.scan(data, len, counts);

    if (memo_generation_ != nand_->writeGeneration()) {
        match_memo_.clear();
        memo_generation_ = nand_->writeGeneration();
    }
    const std::uint64_t key =
        std::uint64_t{internKeys(keys)} << kMemoPageBits | ppn;
    auto [it, fresh] = match_memo_.try_emplace(key);
    MatchMemo &memo = it->second;
    if (fresh) {
        pm::MatchResult r = ip.scan(data, len, counts);
        memo.pack(r, counts);
        return r;
    }
    ++memo_hits_;
    pm::MatchResult r = memo.unpack(counts);
    if (counts && !memo.counted) {
        ip.countHits(r, data, len);
        memo.pack(r, true);
    }
    ip.noteScan(len, r.any);
    return r;
}

sim::BufferView
SsdDevice::pageView(ftl::Lpn lpn, Bytes offset, Bytes len)
{
    BISC_ASSERT(offset + len <= config_.geometry.page_size,
                "view window beyond page");
    if (!ftl_->isMapped(lpn))
        return nand_->zeroView(len);
    return nand_->peekView(ftl_->physicalOf(lpn), offset, len);
}

void
SsdDevice::exportStats(sim::Stats &st) const
{
    // Every name carries the drive qualifier captured at construction
    // ("drive<k>." inside a multi-drive array, empty otherwise), so a
    // multi-drive export keeps each drive's counters distinct.
    auto set = [&](const char *name, double v) {
        st.set(stats_scope_.empty() ? std::string(name)
                                    : stats_scope_ + name,
               v);
    };
    set("nand.page_reads", static_cast<double>(nand_->pageReads()));
    set("nand.page_writes", static_cast<double>(nand_->pageWrites()));
    set("nand.block_erases",
        static_cast<double>(nand_->blockErases()));
    set("nand.read_retries",
        static_cast<double>(nand_->readRetries()));
    set("nand.ecc_corrected_pages",
        static_cast<double>(nand_->eccCorrectedPages()));
    set("nand.uncorrectable_reads",
        static_cast<double>(nand_->uncorrectableReads()));
    set("nand.program_fails",
        static_cast<double>(nand_->programFails()));
    set("nand.erase_fails", static_cast<double>(nand_->eraseFails()));
    set("nand.die_stalls", static_cast<double>(nand_->dieStalls()));
    set("nand.channel_stalls",
        static_cast<double>(nand_->channelStalls()));
    set("ftl.gc_runs", static_cast<double>(ftl_->gcRuns()));
    set("ftl.pages_relocated",
        static_cast<double>(ftl_->pagesRelocated()));
    set("ftl.uncorrectable_reads",
        static_cast<double>(ftl_->uncorrectableReads()));
    set("ftl.retry_relocations",
        static_cast<double>(ftl_->retryRelocations()));
    set("ftl.blocks_retired",
        static_cast<double>(ftl_->blocksRetired()));
    set("ftl.program_fail_remaps",
        static_cast<double>(ftl_->programFailRemaps()));

    // Channel-bus utilization and matcher-IP aggregates.
    Tick busy = 0;
    for (std::uint32_t c = 0; c < config_.geometry.channels; ++c)
        busy += nand_->channelBusyTicks(c);
    set("nand.channel_busy_ticks", static_cast<double>(busy));
    std::uint64_t pm_scans = 0, pm_bytes = 0, pm_hits = 0;
    for (const auto &m : matchers_) {
        pm_scans += m->scans();
        pm_bytes += m->bytesScanned();
        pm_hits += m->matchedScans();
    }
    set("pm.scans", static_cast<double>(pm_scans));
    set("pm.bytes_scanned", static_cast<double>(pm_bytes));
    set("pm.matched_scans", static_cast<double>(pm_hits));

    // Everything the instrumented layers recorded into this kernel's
    // metrics registry (counters + flattened histogram buckets).
    kernel_.obs().metrics().visit(
        [&st](const std::string &name, double v) { st.set(name, v); });
}

Tick
SsdDevice::hostRead(ftl::Lpn lpn, Bytes offset, Bytes len,
                    std::uint8_t *out)
{
    [[maybe_unused]] Tick start = kernel_.now();
    Tick sub_done = kernel_.now() + hil_->submissionLatency();
    ftl::ReadResult r = ftl_->read(lpn, offset, len, out, sub_done);
    BISC_ASSERT(r.status.ok(), "unhandled media error on host read "
                "path: ", r.status.toString());
    Tick dma_done = hil_->dmaToHost(len, r.done);
    Tick done = dma_done + hil_->completionLatency();
    OBS_COMPLETE(kernel_.obs(), "ssd", "hostRead", start, done - start,
                 static_cast<std::int64_t>(lpn));
    return done;
}

Tick
SsdDevice::hostWrite(ftl::Lpn lpn, const std::uint8_t *data, Bytes len)
{
    [[maybe_unused]] Tick start = kernel_.now();
    Tick sub_done = kernel_.now() + hil_->submissionLatency();
    Tick dma_done = hil_->dmaToDevice(len, sub_done);
    // The FTL program path overlaps command handling; completion posts
    // once both payload DMA and program have finished.
    Tick prog_done = ftl_->write(lpn, data, len);
    Tick done = std::max(dma_done, prog_done) +
                hil_->completionLatency();
    OBS_COMPLETE(kernel_.obs(), "ssd", "hostWrite", start, done - start,
                 static_cast<std::int64_t>(lpn));
    return done;
}

Tick
SsdDevice::hostReadPages(const std::vector<ftl::Lpn> &pages,
                         std::uint8_t *out)
{
    const Bytes page_size = config_.geometry.page_size;
    [[maybe_unused]] Tick start = kernel_.now();
    OBS_HIST(*batch_fanout_, pages.size());
    Tick sub_done = kernel_.now() + hil_->submissionLatency();

    // One vectored FTL command for the whole extent; the pages fan out
    // across NAND channels and each is DMA'd as its media completes.
    batch_results_.resize(pages.size());
    ftl_->readPages(pages.data(), pages.size(), out, sub_done,
                    batch_results_.data());

    Tick last_dma = sub_done;
    for (std::size_t i = 0; i < pages.size(); ++i) {
        const ftl::ReadResult &r = batch_results_[i];
        BISC_ASSERT(r.status.ok(), "unhandled media error on host "
                    "read path: ", r.status.toString());
        Tick dma_done = hil_->dmaToHost(page_size, r.done);
        last_dma = std::max(last_dma, dma_done);
    }
    Tick done = last_dma + hil_->completionLatency();
    OBS_COMPLETE(kernel_.obs(), "ssd", "hostReadPages", start,
                 done - start,
                 static_cast<std::int64_t>(pages.size()));
    return done;
}

}  // namespace bisc::ssd
