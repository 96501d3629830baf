#include "ftl/ftl.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace bisc::ftl {

Ftl::Ftl(sim::Kernel &kernel, nand::NandFlash &nand,
         const FtlParams &params)
    : kernel_(kernel), nand_(nand), params_(params)
{
    const auto &geo = nand_.geometry();
    logical_pages_ = static_cast<std::uint64_t>(
        static_cast<double>(geo.totalPages()) *
        (1.0 - params_.overprovision));
    gc_reserve_ = params_.gc_reserve_blocks != 0
                      ? params_.gc_reserve_blocks
                      : geo.dies();

    // All blocks start free, distributed to their die slots. Pop from
    // the back, so push low block numbers last to allocate them first.
    slots_.resize(geo.dies());
    for (nand::Pbn pbn = geo.totalBlocks(); pbn-- > 0;)
        slots_[pbn % geo.dies()].free.push_back(pbn);

    auto &reg = kernel_.obs().metrics();
    map_lookups_ = &reg.counter("ftl.map_lookups", "lookups");
    read_latency_hist_ = &reg.histogram("ftl.read_latency");
}

ReadResult
Ftl::read(Lpn lpn, Bytes offset, Bytes len, std::uint8_t *out,
          Tick earliest)
{
    BISC_ASSERT(lpn < logical_pages_, "lpn out of range: ", lpn);
    Tick start = std::max(earliest, kernel_.now());
    Tick fw_done = start + params_.fw_read_overhead;
    OBS_COUNT(*map_lookups_);
    auto it = map_.find(lpn);
    if (it == map_.end()) {
        if (out != nullptr)
            std::fill(out, out + len, 0);
        return ReadResult{fw_done, Status(), 0};
    }
    // Firmware dispatch, then media + channel (NAND pipelines them).
    nand::Ppn ppn = it->second;
    nand::ReadResult r = nand_.readPage(ppn, offset, len, out, fw_done);
    OBS_HIST(*read_latency_hist_, r.done - start);
    if (!r.status.ok()) {
        ++uncorrectable_;
        return ReadResult{r.done, r.status, r.retries};
    }
    maybeRelocateAfterRead(lpn, ppn, r.retries);
    return ReadResult{r.done, Status(), r.retries};
}

ReadViewResult
Ftl::readView(Lpn lpn, Bytes offset, Bytes len, Tick earliest)
{
    BISC_ASSERT(lpn < logical_pages_, "lpn out of range: ", lpn);
    Tick start = std::max(earliest, kernel_.now());
    Tick fw_done = start + params_.fw_read_overhead;
    OBS_COUNT(*map_lookups_);
    auto it = map_.find(lpn);
    if (it == map_.end())
        return ReadViewResult{fw_done, Status(), 0,
                              nand_.zeroView(len)};
    nand::Ppn ppn = it->second;
    nand::ReadViewResult r =
        nand_.readPageView(ppn, offset, len, fw_done);
    OBS_HIST(*read_latency_hist_, r.done - start);
    if (!r.status.ok()) {
        ++uncorrectable_;
        return ReadViewResult{r.done, std::move(r.status), r.retries,
                              std::move(r.view)};
    }
    if (params_.relocate_retry_threshold != 0 &&
        r.retries >= params_.relocate_retry_threshold && !in_gc_) {
        // Relocation may reclaim (erase) the block the borrowed view
        // points into; pin the bytes before touching the mapping.
        r.view = r.view.pin(nand_.bufferPool());
    }
    maybeRelocateAfterRead(lpn, ppn, r.retries);
    return ReadViewResult{r.done, Status(), r.retries,
                          std::move(r.view)};
}

BatchReadResult
Ftl::readPages(const Lpn *lpns, std::size_t n, std::uint8_t *out,
               Tick earliest, ReadResult *per_page)
{
    const Bytes page_size = pageSize();
    BatchReadResult br;
    br.done = std::max(earliest, kernel_.now());
    for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t *dst =
            out == nullptr ? nullptr : out + i * page_size;
        ReadResult r = read(lpns[i], 0, page_size, dst, earliest);
        br.done = std::max(br.done, r.done);
        br.retries += r.retries;
        if (!r.status.ok() && br.status.ok())
            br.status = r.status;
        if (per_page != nullptr)
            per_page[i] = std::move(r);
    }
    return br;
}

void
Ftl::maybeRelocateAfterRead(Lpn lpn, nand::Ppn ppn,
                            std::uint32_t retries)
{
    if (params_.relocate_retry_threshold == 0 ||
        retries < params_.relocate_retry_threshold || in_gc_)
        return;
    // The page decoded, but only after deep retries: refresh it into a
    // fresh block before it degrades into data loss, and retire the
    // block once it keeps producing such reads.
    relocateLpn(lpn);
    ++retry_relocations_;
    nand::Pbn pbn = nand_.geometry().blockOf(ppn);
    if (!isBad(pbn) &&
        ++suspect_events_[pbn] >= params_.bad_block_read_events)
        retireBlock(pbn);
}

Tick
Ftl::write(Lpn lpn, const std::uint8_t *data, Bytes len)
{
    BISC_ASSERT(lpn < logical_pages_, "lpn out of range: ", lpn);
    BISC_ASSERT(len <= pageSize(), "write beyond page: ", len);
    invalidate(lpn);
    auto [ppn, done] = programWithRemap(data, len);
    bindMapping(lpn, ppn);
    return done + params_.fw_write_overhead;
}

void
Ftl::trim(Lpn lpn)
{
    invalidate(lpn);
}

void
Ftl::install(Lpn lpn, const std::uint8_t *data, Bytes len)
{
    BISC_ASSERT(lpn < logical_pages_, "lpn out of range: ", lpn);
    invalidate(lpn);
    nand::Ppn ppn = allocPage(/*timed=*/false);
    nand_.installPage(ppn, data, len);
    bindMapping(lpn, ppn);
}

nand::Ppn
Ftl::physicalOf(Lpn lpn) const
{
    auto it = map_.find(lpn);
    BISC_ASSERT(it != map_.end(), "physicalOf on unmapped lpn ", lpn);
    return it->second;
}

std::uint64_t
Ftl::freeBlocks() const
{
    return totalFreeBlocks();
}

std::uint64_t
Ftl::wearSpread() const
{
    const auto &geo = nand_.geometry();
    std::uint64_t min_e = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_e = 0;
    for (nand::Pbn pbn = 0; pbn < geo.totalBlocks(); ++pbn) {
        std::uint64_t e = nand_.eraseCount(pbn);
        min_e = std::min(min_e, e);
        max_e = std::max(max_e, e);
    }
    return max_e - min_e;
}

bool
Ftl::auditMapping(std::string *why) const
{
    auto fail = [why](std::string msg) {
        if (why != nullptr)
            *why = std::move(msg);
        return false;
    };
    const auto &geo = nand_.geometry();
    if (map_.size() != rev_.size())
        return fail(detail::format("map/rev size mismatch: ",
                                   map_.size(), " vs ", rev_.size()));
    std::unordered_map<nand::Pbn, std::uint32_t> recount;
    for (const auto &[lpn, ppn] : map_) {
        auto rit = rev_.find(ppn);
        if (rit == rev_.end() || rit->second != lpn)
            return fail(detail::format("rev mapping broken for lpn ",
                                       lpn, " -> ppn ", ppn));
        if (!nand_.isProgrammed(ppn))
            return fail(detail::format("lpn ", lpn,
                                       " maps to unprogrammed ppn ",
                                       ppn));
        nand::Pbn pbn = geo.blockOf(ppn);
        if (isBad(pbn))
            return fail(detail::format("lpn ", lpn,
                                       " lives in retired block ", pbn));
        ++recount[pbn];
    }
    for (const auto &[pbn, n] : valid_count_) {
        auto it = recount.find(pbn);
        std::uint32_t actual = it == recount.end() ? 0 : it->second;
        if (n != actual)
            return fail(detail::format("valid count of block ", pbn,
                                       " is ", n, ", expected ",
                                       actual));
        recount.erase(pbn);
    }
    for (const auto &[pbn, n] : recount) {
        if (n != 0)
            return fail(detail::format("block ", pbn, " holds ", n,
                                       " live pages but has no valid "
                                       "count"));
    }
    for (nand::Pbn pbn : bad_blocks_) {
        if (sealed_.count(pbn) != 0)
            return fail(detail::format("retired block ", pbn,
                                       " still sealed"));
        const Slot &slot = slots_[pbn % geo.dies()];
        if (slot.active && *slot.active == pbn)
            return fail(detail::format("retired block ", pbn,
                                       " still active"));
        if (std::find(slot.free.begin(), slot.free.end(), pbn) !=
            slot.free.end())
            return fail(detail::format("retired block ", pbn,
                                       " back in the free pool"));
    }
    return true;
}

nand::Ppn
Ftl::allocPage(bool timed)
{
    const auto &geo = nand_.geometry();

    // Top up the free-block reserve. A drive whose logical space is
    // fully mapped may have nothing to reclaim yet (its only invalid
    // pages still in active blocks); it allocates from the free pool
    // and collects once a sealed block holds an invalid page.
    if (timed && !in_gc_ && totalFreeBlocks() < gc_reserve_)
        gcOnce();

    // Round-robin over die slots, skipping starved ones.
    for (std::uint32_t attempt = 0; attempt < geo.dies(); ++attempt) {
        Slot &slot = slots_[slot_cursor_];
        slot_cursor_ = (slot_cursor_ + 1) % geo.dies();

        if (slot.active && slot.next_idx >= geo.pages_per_block) {
            sealed_.insert(*slot.active);
            slot.active.reset();
        }
        if (!slot.active) {
            if (slot.free.empty())
                continue;
            slot.active = slot.free.back();
            slot.free.pop_back();
            slot.next_idx = 0;
        }
        return geo.pageOfBlock(*slot.active, slot.next_idx++);
    }
    if (!timed || in_gc_) {
        BISC_PANIC("allocation ran out of space (untimed install or "
                   "nested GC); populate less data or enlarge the "
                   "device");
    }
    // All slots starved even after the reserve check; reclaim harder.
    BISC_ASSERT(gcOnce(),
                "no free page and nothing to reclaim: device is full");
    return allocPage(timed);
}

std::pair<nand::Ppn, Tick>
Ftl::programWithRemap(const std::uint8_t *data, Bytes len)
{
    for (std::uint32_t attempt = 0; attempt < params_.max_program_attempts;
         ++attempt) {
        nand::Ppn ppn = allocPage(/*timed=*/true);
        nand::OpResult r = nand_.programPage(ppn, data, len);
        if (r.status.ok())
            return {ppn, r.done};
        // Program verify failed: the block has grown bad. Retire it
        // (migrating whatever valid pages it already holds) and try a
        // different block.
        ++program_remaps_;
        retireBlock(nand_.geometry().blockOf(ppn));
    }
    BISC_PANIC("program failed ", params_.max_program_attempts,
               " times in distinct blocks; media beyond recovery");
}

void
Ftl::retireBlock(nand::Pbn pbn)
{
    if (isBad(pbn))
        return;
    const auto &geo = nand_.geometry();
    // Mark bad first so no allocation below can hand out its pages.
    bad_blocks_.insert(pbn);
    sealed_.erase(pbn);
    suspect_events_.erase(pbn);
    Slot &slot = slots_[pbn % geo.dies()];
    if (slot.active && *slot.active == pbn)
        slot.active.reset();
    slot.free.erase(std::remove(slot.free.begin(), slot.free.end(), pbn),
                    slot.free.end());
    ++blocks_retired_;

    // Migrate surviving data. Firmware migration reads run the full
    // offline recovery ladder; the model treats them as functionally
    // successful (timing charged, bytes taken from the backing store).
    sim::PageRef buf = nand_.bufferPool().acquire();
    for (std::uint32_t i = 0; i < geo.pages_per_block; ++i) {
        nand::Ppn src = geo.pageOfBlock(pbn, i);
        auto rit = rev_.find(src);
        if (rit == rev_.end())
            continue;
        Lpn lpn = rit->second;
        nand_.readPage(src, 0, geo.page_size, nullptr);
        snapshotPage(src, buf.data());
        rev_.erase(rit);
        auto vit = valid_count_.find(pbn);
        if (vit != valid_count_.end() && vit->second > 0)
            --vit->second;
        auto [dst, done] = programWithRemap(buf.data(), geo.page_size);
        (void)done;
        bindMapping(lpn, dst);
        ++pages_relocated_;
    }
    valid_count_.erase(pbn);
}

void
Ftl::relocateLpn(Lpn lpn)
{
    auto it = map_.find(lpn);
    if (it == map_.end())
        return;
    const auto &geo = nand_.geometry();
    sim::PageRef buf = nand_.bufferPool().acquire();
    // The recovered bytes are already in hand from the triggering
    // read; only the rewrite is charged.
    snapshotPage(it->second, buf.data());
    invalidate(lpn);
    auto [dst, done] = programWithRemap(buf.data(), geo.page_size);
    (void)done;
    bindMapping(lpn, dst);
}

bool
Ftl::gcOnce()
{
    // Greedy victim: the sealed block with the fewest valid pages.
    nand::Pbn victim = 0;
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    for (nand::Pbn pbn : sealed_) {
        auto it = valid_count_.find(pbn);
        std::uint32_t v = it == valid_count_.end() ? 0 : it->second;
        if (v < best) {
            best = v;
            victim = pbn;
        }
    }
    const auto &geo = nand_.geometry();
    if (best >= geo.pages_per_block)
        return false;  // no sealed blocks, or every one fully valid
    sealed_.erase(victim);
    ++gc_runs_;
    in_gc_ = true;
    OBS_INSTANT(kernel_.obs(), "ftl", "gc",
                static_cast<std::int64_t>(victim));

    sim::PageRef buf = nand_.bufferPool().acquire();
    for (std::uint32_t i = 0; i < geo.pages_per_block; ++i) {
        nand::Ppn src = geo.pageOfBlock(victim, i);
        auto rit = rev_.find(src);
        if (rit == rev_.end())
            continue;
        Lpn lpn = rit->second;
        // Timing-only media read; GC data moves through the firmware
        // buffer, taken functionally from the backing store so an
        // injected error can never propagate corrupt bytes.
        nand_.readPage(src, 0, geo.page_size, nullptr);
        snapshotPage(src, buf.data());
        rev_.erase(rit);
        auto vit = valid_count_.find(victim);
        if (vit != valid_count_.end() && vit->second > 0)
            --vit->second;
        auto [dst, done] = programWithRemap(buf.data(), geo.page_size);
        (void)done;
        bindMapping(lpn, dst);
        ++pages_relocated_;
    }
    in_gc_ = false;
    valid_count_.erase(victim);
    nand::OpResult er = nand_.eraseBlock(victim);
    if (!er.status.ok()) {
        // The reclaimed block refused to erase: retire it instead of
        // returning it to the free pool.
        retireBlock(victim);
        return true;
    }
    slots_[victim % geo.dies()].free.push_back(victim);
    return true;
}

void
Ftl::invalidate(Lpn lpn)
{
    auto it = map_.find(lpn);
    if (it == map_.end())
        return;
    nand::Ppn ppn = it->second;
    map_.erase(it);
    rev_.erase(ppn);
    nand::Pbn pbn = nand_.geometry().blockOf(ppn);
    auto vit = valid_count_.find(pbn);
    if (vit != valid_count_.end() && vit->second > 0)
        --vit->second;
}

void
Ftl::bindMapping(Lpn lpn, nand::Ppn ppn)
{
    map_[lpn] = ppn;
    rev_[ppn] = lpn;
    ++valid_count_[nand_.geometry().blockOf(ppn)];
}

void
Ftl::snapshotPage(nand::Ppn ppn, std::uint8_t *buf) const
{
    const Bytes page_size = pageSize();
    const auto *page = nand_.peekPage(ppn);
    Bytes n = page == nullptr
                  ? 0
                  : std::min<Bytes>(page->size(), page_size);
    if (n > 0)
        std::memcpy(buf, page->data(), n);
    if (n < page_size)
        std::memset(buf + n, 0, page_size - n);
}

std::uint64_t
Ftl::totalFreeBlocks() const
{
    std::uint64_t n = 0;
    for (const auto &slot : slots_)
        n += slot.free.size();
    return n;
}

FtlImage
Ftl::exportImage() const
{
    FtlImage image;
    image.slots.reserve(slots_.size());
    for (const auto &slot : slots_) {
        FtlImage::Slot s;
        s.free = slot.free;
        s.active = slot.active;
        s.next_idx = slot.next_idx;
        image.slots.push_back(std::move(s));
    }
    image.slot_cursor = slot_cursor_;
    image.map = map_;
    image.rev = rev_;
    image.valid_count = valid_count_;
    image.sealed = sealed_;
    image.bad_blocks = bad_blocks_;
    image.suspect_events = suspect_events_;
    image.gc_runs = gc_runs_;
    image.pages_relocated = pages_relocated_;
    image.uncorrectable = uncorrectable_;
    image.retry_relocations = retry_relocations_;
    image.blocks_retired = blocks_retired_;
    image.program_remaps = program_remaps_;
    return image;
}

void
Ftl::importImage(const FtlImage &image)
{
    BISC_ASSERT(map_.empty() && gc_runs_ == 0 && !in_gc_,
                "importImage requires a fresh FTL");
    BISC_ASSERT(image.slots.size() == slots_.size(),
                "importImage geometry mismatch");
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        slots_[i].free = image.slots[i].free;
        slots_[i].active = image.slots[i].active;
        slots_[i].next_idx = image.slots[i].next_idx;
    }
    slot_cursor_ = image.slot_cursor;
    map_ = image.map;
    rev_ = image.rev;
    valid_count_ = image.valid_count;
    sealed_ = image.sealed;
    bad_blocks_ = image.bad_blocks;
    suspect_events_ = image.suspect_events;
    gc_runs_ = image.gc_runs;
    pages_relocated_ = image.pages_relocated;
    uncorrectable_ = image.uncorrectable;
    retry_relocations_ = image.retry_relocations;
    blocks_retired_ = image.blocks_retired;
    program_remaps_ = image.program_remaps;
}

}  // namespace bisc::ftl
