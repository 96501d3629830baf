#include "nand/nand.h"

#include <algorithm>
#include <cstring>

namespace bisc::nand {

NandFlash::NandFlash(sim::Kernel &kernel, const Geometry &geo,
                     const NandTiming &timing, const FaultConfig &faults,
                     const EccConfig &ecc)
    : kernel_(kernel), geo_(geo), timing_(timing), ecc_(ecc),
      fault_(faults), pool_(geo.page_size), zero_page_(geo.page_size, 0)
{
    dies_.reserve(geo_.dies());
    for (std::uint32_t d = 0; d < geo_.dies(); ++d) {
        dies_.push_back(std::make_unique<sim::Server>(
            kernel_, "die" + std::to_string(d)));
    }
    channels_.reserve(geo_.channels);
    for (std::uint32_t c = 0; c < geo_.channels; ++c) {
        channels_.push_back(std::make_unique<sim::Server>(
            kernel_, "ch" + std::to_string(c)));
    }
    read_latency_hist_ =
        &kernel_.obs().metrics().histogram("nand.read_latency");
}

const std::vector<std::uint8_t> *
NandFlash::timedRead(Ppn ppn, Bytes offset, Bytes len, Tick earliest,
                     ReadResult &r, bool &uncorrectable)
{
    BISC_ASSERT(ppn < geo_.totalPages(), "ppn out of range: ", ppn);
    BISC_ASSERT(offset + len <= geo_.page_size,
                "read beyond page: off=", offset, " len=", len);

    // Media sense (plus any injected die stall), then the ECC decode /
    // re-sense loop, then pipelined bus transfer of the requested bytes.
    Tick media = timing_.read_page;
    if (Tick stall = fault_.dieStallTicks(); stall != 0) {
        media += stall;
        ++die_stalls_;
    }
    Tick media_done = dieServer(ppn).reserveAt(earliest, media);

    const std::vector<std::uint8_t> *stored = lookupPage(ppn);
    if (fault_.enabled() && stored != nullptr) {
        // Erased (unwritten) pages carry no data to decode; only
        // programmed pages go through ECC.
        std::uint64_t pe = eraseCount(geo_.blockOf(ppn));
        double scale = 1.0;
        std::uint32_t errors =
            fault_.senseErrors(geo_.page_size, pe, scale);
        while (errors > ecc_.correctable_bits &&
               r.retries < ecc_.max_read_retries) {
            ++r.retries;
            scale *= ecc_.retry_ber_scale;
            media_done = dieServer(ppn).reserveAt(
                media_done, ecc_.read_retry_ticks);
            errors = fault_.senseErrors(geo_.page_size, pe, scale);
        }
        read_retries_ += r.retries;
        if (errors > ecc_.correctable_bits) {
            uncorrectable = true;
            ++uncorrectable_;
            r.status = Status::error(
                ErrCode::kUncorrectable,
                detail::format("ppn ", ppn, " after ", r.retries,
                               " retries"));
        } else if (errors > 0 || r.retries > 0) {
            ++ecc_corrected_;
        }
    }

    Tick xfer = timing_.channel_cmd +
                transferTicks(len, timing_.channel_bw);
    if (Tick stall = fault_.channelStallTicks(); stall != 0) {
        xfer += stall;
        ++channel_stalls_;
    }
    r.done = channelServer(ppn).reserveAt(media_done, xfer);

    ++page_reads_;
    bytes_read_ += len;
    [[maybe_unused]] Tick start = std::max(earliest, kernel_.now());
    OBS_HIST(*read_latency_hist_, r.done - start);
    OBS_COMPLETE(kernel_.obs(), "nand", "read", start, r.done - start,
                 static_cast<std::int64_t>(ppn));
    return stored;
}

const std::vector<std::uint8_t> *
NandFlash::lookupPage(Ppn ppn) const
{
    auto it = pages_.find(ppn);
    if (it != pages_.end())
        return &it->second;
    if (base_ == nullptr || dead_.count(ppn) != 0)
        return nullptr;
    auto bit = base_->pages.find(ppn);
    return bit == base_->pages.end() ? nullptr : &bit->second;
}

ReadResult
NandFlash::readPage(Ppn ppn, Bytes offset, Bytes len, std::uint8_t *out,
                    Tick earliest)
{
    ReadResult r;
    bool uncorrectable = false;
    const auto *page =
        timedRead(ppn, offset, len, earliest, r, uncorrectable);

    if (out != nullptr) {
        if (page == nullptr) {
            std::memset(out, 0, len);
        } else {
            Bytes avail =
                page->size() > offset ? page->size() - offset : 0;
            Bytes n = std::min(len, avail);
            if (n > 0)
                std::memcpy(out, page->data() + offset, n);
            if (n < len)
                std::memset(out + n, 0, len - n);
        }
        if (uncorrectable)
            fault_.corrupt(out, len);
    }
    return r;
}

ReadViewResult
NandFlash::readPageView(Ppn ppn, Bytes offset, Bytes len, Tick earliest)
{
    ReadViewResult v;
    ReadResult r;
    bool uncorrectable = false;
    const auto *page =
        timedRead(ppn, offset, len, earliest, r, uncorrectable);
    v.done = r.done;
    v.status = std::move(r.status);
    v.retries = r.retries;

    if (!uncorrectable && page == nullptr) {
        v.view = zeroView(len);
    } else if (!uncorrectable && offset + len <= page->size()) {
        pool_.noteBorrow();
        v.view = sim::BufferView(page->data() + offset, len);
    } else {
        // A damaged or short read needs bytes of its own: corruption
        // must never touch the backing store, and padding needs a
        // contiguous buffer. Pin a pool copy.
        sim::PageRef ref = pool_.acquire();
        Bytes avail = 0;
        if (page != nullptr && page->size() > offset)
            avail = page->size() - offset;
        Bytes n = std::min(len, avail);
        if (n > 0)
            std::memcpy(ref.data(), page->data() + offset, n);
        if (n < len)
            std::memset(ref.data() + n, 0, len - n);
        if (uncorrectable)
            fault_.corrupt(ref.data(), len);
        v.view = sim::BufferView(std::move(ref), len);
    }
    return v;
}

OpResult
NandFlash::programPage(Ppn ppn, const std::uint8_t *data, Bytes len,
                       Tick earliest)
{
    BISC_ASSERT(ppn < geo_.totalPages(), "ppn out of range: ", ppn);
    BISC_ASSERT(len <= geo_.page_size, "program beyond page: ", len);
    BISC_ASSERT(!isProgrammed(ppn),
                "program-once violation on ppn ", ppn);
    OpResult r;
    // Bus transfer into the die's page register, then media program.
    Tick xfer = timing_.channel_cmd +
                transferTicks(len, timing_.channel_bw);
    if (Tick stall = fault_.channelStallTicks(); stall != 0) {
        xfer += stall;
        ++channel_stalls_;
    }
    Tick bus_done = channelServer(ppn).reserveAt(earliest, xfer);
    Tick media = timing_.program_page;
    if (Tick stall = fault_.dieStallTicks(); stall != 0) {
        media += stall;
        ++die_stalls_;
    }
    r.done = dieServer(ppn).reserveAt(bus_done, media);
    if (fault_.programFails()) {
        // The attempt consumed bus + media time but the page verified
        // bad; nothing is installed and the block has grown bad.
        ++program_fails_;
        r.status = Status::error(ErrCode::kProgramFail,
                                 detail::format("ppn ", ppn));
        return r;
    }
    installPage(ppn, data, len);
    ++page_writes_;
    {
        [[maybe_unused]] Tick start = std::max(earliest, kernel_.now());
        OBS_COMPLETE(kernel_.obs(), "nand", "program", start,
                     r.done - start, static_cast<std::int64_t>(ppn));
    }
    return r;
}

OpResult
NandFlash::eraseBlock(Pbn pbn, Tick earliest)
{
    BISC_ASSERT(pbn < geo_.totalBlocks(), "pbn out of range: ", pbn);
    OpResult r;
    Ppn first = geo_.pageOfBlock(pbn, 0);
    Tick media = timing_.erase_block;
    if (Tick stall = fault_.dieStallTicks(); stall != 0) {
        media += stall;
        ++die_stalls_;
    }
    r.done = dieServer(first).reserveAt(earliest, media);
    if (fault_.eraseFails()) {
        // The block refused to erase: its pages stay as they are (so
        // a caller can still migrate valid data out) and it must be
        // retired by the layer above.
        ++erase_fails_;
        r.status = Status::error(ErrCode::kEraseFail,
                                 detail::format("pbn ", pbn));
        return r;
    }
    for (std::uint32_t i = 0; i < geo_.pages_per_block; ++i) {
        Ppn ppn = geo_.pageOfBlock(pbn, i);
        pages_.erase(ppn);
        if (base_ != nullptr && base_->pages.count(ppn) != 0)
            dead_.insert(ppn);
    }
    ++erase_counts_[pbn];
    ++block_erases_;
    ++write_generation_;
    {
        [[maybe_unused]] Tick start = std::max(earliest, kernel_.now());
        OBS_COMPLETE(kernel_.obs(), "nand", "erase", start,
                     r.done - start, static_cast<std::int64_t>(pbn));
    }
    return r;
}

void
NandFlash::installPage(Ppn ppn, const std::uint8_t *data, Bytes len)
{
    BISC_ASSERT(ppn < geo_.totalPages(), "ppn out of range: ", ppn);
    BISC_ASSERT(len <= geo_.page_size, "install beyond page: ", len);
    auto &page = pages_[ppn];
    page.assign(data, data + len);
    if (base_ != nullptr)
        dead_.erase(ppn);
    ++write_generation_;
}

const std::vector<std::uint8_t> *
NandFlash::peekPage(Ppn ppn) const
{
    return lookupPage(ppn);
}

std::shared_ptr<const NandImage>
NandFlash::freeze()
{
    auto image = std::make_shared<NandImage>();
    if (base_ != nullptr) {
        // Freezing an already-forked device: merge its private overlay
        // into a copy of the base (pages living only in the base are
        // copied; this path is for re-snapshotting a mutated fork).
        image->pages = base_->pages;
        for (Ppn dead : dead_)
            image->pages.erase(dead);
        for (auto &[ppn, bytes] : pages_)
            image->pages[ppn] = std::move(bytes);
    } else {
        image->pages = std::move(pages_);
    }
    pages_.clear();
    dead_.clear();
    image->erase_counts = erase_counts_;
    image->fault_rng = fault_.rngState();
    image->page_reads = page_reads_;
    image->page_writes = page_writes_;
    image->block_erases = block_erases_;
    image->bytes_read = bytes_read_;
    image->read_retries = read_retries_;
    image->ecc_corrected = ecc_corrected_;
    image->uncorrectable = uncorrectable_;
    image->program_fails = program_fails_;
    image->erase_fails = erase_fails_;
    image->die_stalls = die_stalls_;
    image->channel_stalls = channel_stalls_;
    base_ = image;
    ++write_generation_;
    return image;
}

void
NandFlash::adoptImage(std::shared_ptr<const NandImage> image)
{
    BISC_ASSERT(image != nullptr, "adopting a null NAND image");
    BISC_ASSERT(pages_.empty() && base_ == nullptr &&
                    page_writes_ == 0 && block_erases_ == 0,
                "adoptImage on a device that has already been used");
    base_ = std::move(image);
    erase_counts_ = base_->erase_counts;
    fault_.setRngState(base_->fault_rng);
    page_reads_ = base_->page_reads;
    page_writes_ = base_->page_writes;
    block_erases_ = base_->block_erases;
    bytes_read_ = base_->bytes_read;
    read_retries_ = base_->read_retries;
    ecc_corrected_ = base_->ecc_corrected;
    uncorrectable_ = base_->uncorrectable;
    program_fails_ = base_->program_fails;
    erase_fails_ = base_->erase_fails;
    die_stalls_ = base_->die_stalls;
    channel_stalls_ = base_->channel_stalls;
    ++write_generation_;
}

sim::BufferView
NandFlash::peekView(Ppn ppn, Bytes offset, Bytes len)
{
    BISC_ASSERT(offset + len <= geo_.page_size,
                "peek beyond page: off=", offset, " len=", len);
    const auto *page = peekPage(ppn);
    if (page == nullptr)
        return zeroView(len);
    Bytes avail = page->size() > offset ? page->size() - offset : 0;
    if (avail >= len) {
        pool_.noteBorrow();
        return sim::BufferView(page->data() + offset, len);
    }
    sim::PageRef ref = pool_.acquire();
    if (avail > 0)
        std::memcpy(ref.data(), page->data() + offset, avail);
    std::memset(ref.data() + avail, 0, len - avail);
    return sim::BufferView(std::move(ref), len);
}

sim::BufferView
NandFlash::zeroView(Bytes len)
{
    BISC_ASSERT(len <= geo_.page_size, "zero view beyond page: ", len);
    pool_.noteBorrow();
    return sim::BufferView(zero_page_.data(), len);
}

}  // namespace bisc::nand
