#include "db/executor.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "db/planner.h"
#include "db/session.h"
#include "db/stats.h"
#include "runtime/module.h"
#include "sim/fanout.h"
#include "sisc/application.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"

namespace bisc::db {

namespace {

/** Block-nested-loop join buffer (MariaDB join_buffer_size). */
constexpr Bytes kJoinBuffer = 128_KiB;

/**
 * Wall-to-wall sim-time accounting of one relational operator:
 * accumulates into DbStats::op_ticks[name] and, when tracing, emits a
 * "db"-category span covering the operator.
 */
class OpTimer
{
  public:
    OpTimer(MiniDb &db, DbStats &stats, const char *name)
        : kernel_(db.env().kernel), stats_(stats), name_(name),
          begin_(kernel_.now())
    {}

    OpTimer(const OpTimer &) = delete;
    OpTimer &operator=(const OpTimer &) = delete;

    ~OpTimer()
    {
        Tick dur = kernel_.now() - begin_;
        stats_.op_ticks[name_] += dur;
        OBS_COMPLETE(kernel_.obs(), "db", name_, begin_, dur);
    }

  private:
    sim::Kernel &kernel_;
    DbStats &stats_;
    const char *name_;
    Tick begin_;
};

/**
 * Append valueToString() of one column, read straight from a packed
 * row slot, to @p key: groupBy's emit order, once per group.
 */
void
appendSlotKey(std::string &key, const std::uint8_t *slot, const Schema &s,
              int column)
{
    const Column &c = s.at(static_cast<std::size_t>(column));
    const std::uint8_t *src =
        slot + s.offsetOf(static_cast<std::size_t>(column));
    switch (c.type) {
      case Type::Int64: {
        std::int64_t v;
        std::memcpy(&v, src, 8);
        char buf[24];
        auto res = std::to_chars(buf, buf + sizeof(buf), v);
        key.append(buf, res.ptr);
        return;
      }
      case Type::Double: {
        double v;
        std::memcpy(&v, src, 8);
        appendDoubleText(key, v);
        return;
      }
      case Type::String:
      case Type::Date:
        break;
    }
    key.append(cellText(src, c.width));
}

/**
 * uint64_t key -> group index, for a lookup per row: open addressing
 * with linear probing in a power-of-two table at most half full,
 * hashed by one multiply (Fibonacci hashing), so a lookup is a
 * multiply, a shift and usually one compare.
 */
class U64Groups
{
  public:
    /** The group of @p key, which becomes group @p fresh if new. */
    std::uint32_t
    find(std::uint64_t key, std::uint32_t fresh)
    {
        for (std::size_t i = slotOf(key);; i = (i + 1) & mask_) {
            if (groups_[i] == kEmpty) {
                keys_[i] = key;
                groups_[i] = fresh;
                if (++size_ * 2 > groups_.size())
                    rehash(2 * groups_.size());
                return fresh;
            }
            if (keys_[i] == key)
                return groups_[i];
        }
    }

  private:
    static constexpr std::uint32_t kEmpty = ~0u;

    std::size_t
    slotOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<std::uint64_t> keys(capacity);
        std::vector<std::uint32_t> groups(capacity, kEmpty);
        mask_ = capacity - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (std::size_t i = 0; i < groups_.size(); ++i) {
            if (groups_[i] == kEmpty)
                continue;
            std::size_t j = slotOf(keys_[i]);
            while (groups[j] != kEmpty)
                j = (j + 1) & mask_;
            keys[j] = keys_[i];
            groups[j] = groups_[i];
        }
        keys_ = std::move(keys);
        groups_ = std::move(groups);
    }

    std::vector<std::uint64_t> keys_ = std::vector<std::uint64_t>(16);
    std::vector<std::uint32_t> groups_ =
        std::vector<std::uint32_t>(16, kEmpty);
    std::size_t mask_ = 15;
    unsigned shift_ = 60;
    std::size_t size_ = 0;
};

/**
 * The identity of a tuple of key columns as slot bytes, with nothing
 * formatted: an Int64 column contributes its 8 bytes, a String or
 * Date column its text cut at the first NUL and zero-padded to a
 * fixed width. Two keys are equal exactly when their valueToString()
 * texts are (int64 -> text is injective; text is compared up to its
 * NUL). A Double column keeps its valueToString() identity: its "%.2f"
 * text, NUL-terminated, after the fixed-width parts.
 */
class SlotKey
{
  public:
    /**
     * Key columns @p cols of @p s. Text parts are @p text_width bytes
     * wide when it is given (a join pads both sides to the wider
     * column), else their column's width.
     */
    SlotKey(const Schema &s, const std::vector<int> &cols,
            Bytes text_width = 0)
    {
        for (int c : cols) {
            const Column &col = s.at(static_cast<std::size_t>(c));
            Part p;
            p.type = col.type;
            p.off = s.offsetOf(static_cast<std::size_t>(c));
            p.width = col.width;
            p.at = fixed_;
            if (col.type == Type::Int64)
                fixed_ += 8;
            else if (isText(col.type))
                fixed_ += text_width != 0 ? text_width : col.width;
            else
                has_double_ = true;
            p.key_width = fixed_ - p.at;
            parts_.push_back(p);
        }
    }

    /** Whether every key fits a uint64_t (packed()). */
    bool packs() const { return !has_double_ && fixed_ <= 8; }

    /** The key of @p slot, zero-extended to 8 bytes (packs() only). */
    std::uint64_t
    packed(const std::uint8_t *slot) const
    {
        std::uint8_t buf[8] = {};
        for (const Part &p : parts_) {
            const std::uint8_t *src = slot + p.off;
            if (p.type == Type::Int64) {
                std::memcpy(buf, src, 8);  // then the only part
                continue;
            }
            for (Bytes i = 0; i < p.width && src[i] != 0; ++i)
                buf[p.at + i] = src[i];
        }
        std::uint64_t k;
        std::memcpy(&k, buf, 8);
        return k;
    }

    /** Write the key of @p slot to @p key (any previous bytes go). */
    void
    write(const std::uint8_t *slot, std::string &key) const
    {
        key.assign(fixed_, '\0');
        for (const Part &p : parts_) {
            const std::uint8_t *src = slot + p.off;
            if (p.type == Type::Double) {
                double v;
                std::memcpy(&v, src, 8);
                appendDoubleText(key, v);
                key.push_back('\0');
            } else {
                std::memcpy(key.data() + p.at, src,
                            p.type == Type::Int64
                                ? 8
                                : cellText(src, p.width).size());
            }
        }
    }

  private:
    struct Part
    {
        Type type;
        Bytes off;        ///< cell offset in the slot
        Bytes width;      ///< cell width
        Bytes at;         ///< offset in the key (fixed-width parts)
        Bytes key_width;  ///< bytes in the key (0 for a Double)
    };

    std::vector<Part> parts_;
    Bytes fixed_ = 0;
    bool has_double_ = false;
};

/**
 * The shipping half of the scan SSDlets: matched pages go out
 * kPagesPerBatch to a Packet framed as [u32 n]{u64 page, u32 len,
 * bytes}*. Each Packet is built once and moved out with its count
 * patched in place. A batch starts, at its first page, on a buffer a
 * receiver recycled when one is kept (rt::sparePacket), instead of
 * regrowing from empty.
 */
class PageBatcher
{
  public:
    PageBatcher(slet::OutputPort<Packet> &out, std::uint64_t page_size)
        : out_(out), page_size_(page_size)
    {}

    /** Add the matched page at byte offset @p off of the file. */
    void
    add(Bytes off, const std::uint8_t *data, Bytes len)
    {
        if (pages_ == 0) {
            batch_ = rt::sparePacket();
            batch_.put<std::uint32_t>(0);  // patched by flush()
        }
        batch_.put<std::uint64_t>(off / page_size_);
        batch_.put<std::uint32_t>(static_cast<std::uint32_t>(len));
        batch_.putBytes(data, len);
        if (++pages_ >= kPagesPerBatch)
            flush();
    }

    /** Send the pages added since the last send, if any. */
    void
    flush()
    {
        if (pages_ == 0)
            return;
        batch_.patch<std::uint32_t>(0, pages_);
        pages_ = 0;
        out_.put(std::move(batch_));
    }

  private:
    slet::OutputPort<Packet> &out_;
    std::uint64_t page_size_;
    Packet batch_;
    std::uint32_t pages_ = 0;
};

/**
 * The matcher key set of @p keys, which the host derived (deriveKeys)
 * and a minidb SSDlet received; a key the matcher rejects panics, so
 * the sampler and the scan refuse the same keys.
 */
pm::KeySet
keySetOf(const std::vector<std::string> &keys)
{
    pm::KeySet set;
    for (const auto &k : keys) {
        const bool ok = set.addKey(k);
        BISC_ASSERT(ok, "scan key rejected by matcher: ", k);
    }
    return set;
}

/**
 * The scan/filter SSDlet of the "minidb" module: streams the requested
 * page runs of its table file — flattened (first, count) local-page
 * pairs; a full-shard scan is the one run (0, shardPageCount) and a
 * zone-map prune keeps fewer — through the channel matchers and ships
 * only matching pages to the host, batched into Packets framed as
 * [u32 n]{u64 page, u32 len, bytes}*. Excluded runs are never touched:
 * no IP control time, no channel stream-through, no flash reads.
 */
class ScanFilterRunsLet
    : public slet::SSDLet<
          slet::In<>, slet::Out<Packet>,
          slet::Arg<slet::File, std::vector<std::string>,
                    std::uint64_t, std::vector<std::uint64_t>>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const pm::KeySet keys = keySetOf(arg<1>());
        std::uint64_t page_size = arg<2>();
        const auto &runs = arg<3>();  // (first, count)* local pages

        // Matches arrive inline in issue order (runs ascend, offsets
        // ascend within a run), so batch contents are deterministic;
        // the tokens carry the device-time completion ticks.
        PageBatcher batcher(out<0>(), page_size);
        auto on_match = [&](Bytes off, const std::uint8_t *data,
                            Bytes len, const pm::MatchResult &) {
            batcher.add(off, data, len);
        };
        std::vector<slet::File::Async> inflight;
        inflight.reserve(runs.size() / 2);
        for (std::size_t r = 0; r + 1 < runs.size(); r += 2) {
            inflight.push_back(file.scanMatched(runs[r] * page_size,
                                                runs[r + 1] * page_size,
                                                keys, on_match));
        }
        for (auto &token : inflight)
            token.wait();
        batcher.flush();
    }
};

/** Sampling probe: match a handful of pages, return the hit count. */
class SampleLet
    : public slet::SSDLet<
          slet::In<>, slet::Out<std::uint64_t>,
          slet::Arg<slet::File, std::vector<std::string>,
                    std::uint64_t, std::vector<std::uint64_t>>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const pm::KeySet keys = keySetOf(arg<1>());
        std::uint64_t page_size = arg<2>();
        const auto &pages = arg<3>();

        // Issue every probe, then wait once: the sampled pages
        // stream through the matchers in parallel across channels.
        std::uint64_t matched = 0;
        std::vector<slet::File::Async> inflight;
        inflight.reserve(pages.size());
        for (std::uint64_t p : pages) {
            inflight.push_back(file.scanMatched(
                p * page_size, page_size, keys,
                [&](Bytes, const std::uint8_t *, Bytes,
                    const pm::MatchResult &) { ++matched; }));
        }
        for (auto &token : inflight)
            token.wait();
        out<0>().put(matched);
    }
};

/** Schema + optional predicate as one SSDlet-argument blob. */
Packet
encodePredBlob(const Schema &schema, const ExprPtr &pred)
{
    Packet p;
    p.put<std::uint32_t>(
        static_cast<std::uint32_t>(schema.columns().size()));
    for (const Column &c : schema.columns()) {
        p.putString(c.name);
        p.put<std::uint8_t>(static_cast<std::uint8_t>(c.type));
        p.put<std::uint64_t>(c.width);
    }
    p.put<std::uint8_t>(pred ? 1 : 0);
    if (pred)
        encodeExpr(p, *pred);
    return p;
}

/**
 * Exact re-check SSDlet of the "minidb" module: the second stage
 * of a device-chained scan pipeline. Receives the matcher stage's
 * shipped-page frames over the in-drive typed port, replays the
 * host's exact predicate on every row slot (device cores are slower
 * at branchy row code — the caller pre-scales the per-byte CPU rate
 * by device_core_slowdown), and emits only matching slots, framed as
 * [u32 n_pages]{u64 local_page, u32 n_rows, n_rows * row_width
 * bytes}*. Row identity with the host re-check is structural: same
 * predicate tree, same slot layout, same rows-in-page bound.
 */
class RecheckLet
    : public slet::SSDLet<
          slet::In<Packet>, slet::Out<Packet>,
          slet::Arg<Packet, std::uint64_t, std::uint64_t,
                    std::uint64_t, double>>
{
  public:
    void
    run() override
    {
        Packet blob = arg<0>();  // copy: get() advances a cursor
        const std::uint64_t rows_per_page = arg<1>();
        const std::uint64_t partial_page = arg<2>();  // ~0: none
        const std::uint64_t partial_rows = arg<3>();
        const double cpu_ns_per_byte = arg<4>();

        const auto ncols = blob.get<std::uint32_t>();
        std::vector<Column> cols;
        cols.reserve(ncols);
        for (std::uint32_t i = 0; i < ncols; ++i) {
            Column c;
            c.name = blob.getString();
            c.type = static_cast<Type>(blob.get<std::uint8_t>());
            c.width = blob.get<std::uint64_t>();
            cols.push_back(std::move(c));
        }
        const Schema schema(std::move(cols));
        BoundPred pred;
        if (blob.get<std::uint8_t>() != 0)
            pred = BoundPred(decodeExpr(blob), schema);
        const Bytes row_width = schema.rowWidth();

        Packet batch;
        Packet rows;  // one page's matching slots, reused
        while (in<0>().get(batch)) {
            const auto n = batch.get<std::uint32_t>();
            Packet framed;  // started at the first matching page
            std::uint32_t framed_pages = 0;
            for (std::uint32_t i = 0; i < n; ++i) {
                const auto local_page = batch.get<std::uint64_t>();
                const auto len = batch.get<std::uint32_t>();
                const std::uint8_t *data = batch.take(len);
                consumeCpu(static_cast<Tick>(
                    static_cast<double>(len) * cpu_ns_per_byte));
                std::uint64_t in_page = local_page == partial_page
                                            ? partial_rows
                                            : rows_per_page;
                rows.clear();
                std::uint32_t matched = 0;
                for (std::uint64_t r = 0; r < in_page; ++r) {
                    const Bytes off = r * row_width;
                    if (off + row_width > len)
                        break;
                    const std::uint8_t *slot = data + off;
                    if (pred.matches(slot)) {
                        rows.putBytes(slot, row_width);
                        ++matched;
                    }
                }
                if (matched == 0)
                    continue;
                if (framed_pages == 0) {
                    framed = rt::sparePacket();
                    framed.put<std::uint32_t>(0);  // patched below
                }
                framed.put<std::uint64_t>(local_page);
                framed.put<std::uint32_t>(matched);
                framed.putBytes(rows.data(), rows.size());
                ++framed_pages;
            }
            rt::recyclePacket(std::move(batch));
            if (framed_pages > 0) {
                framed.patch<std::uint32_t>(0, framed_pages);
                out<0>().put(std::move(framed));
            }
        }
    }
};

// The MiniDB device module: every DB SSDlet (these three and
// workloads.cc's word count and join semi-scan) in one image, loaded
// once per drive and instantiated per scan.
DeclareModule("minidb", 82'320);
RegisterSSDLet("minidb", "idScanFilter", ScanFilterRunsLet);
RegisterSSDLet("minidb", "idSample", SampleLet);
RegisterSSDLet("minidb", "idRecheck", RecheckLet);

/**
 * The layout an operator keeps of a table's rows: the table columns
 * @p columns names, in that order (every column, in table order, when
 * empty) — a scan's result rows, a join's inner side. Kept columns
 * that follow each other in the table as well copy as one segment. An
 * entry out of range or a column named twice panics, naming @p op
 * ("scan", "join"), the table and the column.
 */
class Projection
{
  public:
    Projection(const Table &table, const std::vector<int> &columns,
               const char *op)
        : in_w_(table.rowWidth())
    {
        const Schema &ts = table.schema();
        std::vector<int> kept = columns;
        if (kept.empty()) {
            for (std::size_t c = 0; c < ts.size(); ++c)
                kept.push_back(static_cast<int>(c));
        }
        std::vector<Column> cols;
        std::vector<bool> seen(ts.size(), false);
        Bytes to = 0;
        for (int c : kept) {
            BISC_ASSERT(c >= 0 && static_cast<std::size_t>(c) < ts.size(),
                        op, " of table '", table.name(), "': column ", c,
                        " out of range (", ts.size(), " columns)");
            const auto i = static_cast<std::size_t>(c);
            BISC_ASSERT(!seen[i], op, " of table '", table.name(),
                        "' keeps column '", ts.at(i).name, "' twice");
            seen[i] = true;
            cols.push_back(ts.at(i));
            const Bytes from = ts.offsetOf(i);
            const Bytes len = ts.at(i).width;
            if (!segments_.empty() &&
                segments_.back().from + segments_.back().len == from)
                segments_.back().len += len;
            else
                segments_.push_back({from, to, len});
            to += len;
        }
        schema_ = Schema(std::move(cols));
        whole_ = segments_.size() == 1 && segments_[0].len == in_w_;
    }

    const Schema &schema() const { return schema_; }

    /**
     * Project @p n consecutive table rows at @p src into @p n slots of
     * this layout at @p dst.
     */
    void
    copy(std::uint8_t *dst, const std::uint8_t *src, std::size_t n) const
    {
        if (whole_) {
            std::memcpy(dst, src, n * in_w_);
            return;
        }
        const Bytes out_w = schema_.rowWidth();
        for (std::size_t i = 0; i < n; ++i, src += in_w_, dst += out_w) {
            for (const Segment &s : segments_)
                copyCells(dst + s.to, src + s.from, s.len);
        }
    }

  private:
    /** Table bytes [from, from + len) go to slot bytes [to, to + len). */
    struct Segment
    {
        Bytes from, to, len;
    };

    Bytes in_w_;
    Schema schema_;
    std::vector<Segment> segments_;
    bool whole_ = false;  ///< one segment as wide as the table row
};

/**
 * One shard's matching rows, as runs of consecutive slots tagged with
 * their global page, so that assembleRows() can lay every shard's rows
 * out in global page order and results stay invariant in the drive
 * count. A host shard copies nothing while it scans: its runs point
 * into the streamed pages it records. A device or chained shard
 * receives its pages or rows in Packets it recycles
 * (rt::recyclePacket), so it projects its matches into rows, already
 * in the result layout, and its runs index that.
 */
struct ShardRows
{
    /** Run::source of a run in rows. */
    static constexpr std::uint32_t kInRows = ~0u;

    struct Run
    {
        std::uint64_t page;    ///< global page index
        std::uint32_t source;  ///< index into pages, or kInRows
        std::uint32_t n;       ///< slots in the run
        std::size_t first;     ///< first slot in the page / in rows
    };

    /**
     * A streamed page a host shard found matches in, by its logical
     * page on the shard's drive. Only the address is kept, never the
     * view: a stream's view lasts until its visitor returns, and the
     * scan's later reads can relocate pages and garbage-collect (erase)
     * the block it borrowed from. assembleRows() resolves the page
     * again just before it copies; table files are not rewritten
     * during a scan, so the current mapping holds the same bytes.
     */
    struct StreamedPage
    {
        ftl::Lpn lpn;
        Bytes offset;  ///< first byte of the visited window in the page
        Bytes len;
    };

    explicit ShardRows(RowSet empty) : rows(std::move(empty)) {}

    /** The drive a host shard streamed pages from. */
    ssd::SsdDevice *dev = nullptr;
    std::vector<StreamedPage> pages;
    RowSet rows;
    std::vector<Run> runs;
};

/**
 * Evaluate @p pred on every row slot of one raw page (global index
 * @p page_idx) and call @p run(first, n) for each maximal run of
 * consecutive matching slots.
 */
template <class RunFn>
void
forEachMatchRun(Table &table, const BoundPred &pred,
                const std::uint8_t *data, Bytes len,
                std::uint64_t page_idx, DbStats &stats, const RunFn &run)
{
    const Schema &schema = table.schema();
    const Bytes row_width = schema.rowWidth();
    const std::uint64_t in_page =
        std::min<std::uint64_t>(table.rowsInPage(page_idx),
                                len / row_width);
    std::uint64_t first = 0, n = 0;
    for (std::uint64_t i = 0; i < in_page; ++i) {
        ++stats.rows_examined;
        if (pred.matches(data + i * row_width)) {
            if (n++ == 0)
                first = i;
        } else if (n > 0) {
            run(first, n);
            n = 0;
        }
    }
    if (n > 0)
        run(first, n);
}

/**
 * Project the matching slots of one raw page, received from a drive,
 * into @p out.rows as one run; true when at least one row matched.
 */
bool
copyMatches(Table &table, const BoundPred &pred, const Projection &proj,
            const std::uint8_t *data, Bytes len, std::uint64_t page_idx,
            ShardRows &out, DbStats &stats)
{
    const Bytes row_width = table.rowWidth();
    const std::size_t first = out.rows.size();
    forEachMatchRun(table, pred, data, len, page_idx, stats,
                    [&](std::uint64_t slot, std::uint64_t n) {
                        proj.copy(out.rows.appendSlots(n),
                                  data + slot * row_width, n);
                    });
    const std::size_t n = out.rows.size() - first;
    if (n == 0)
        return false;
    out.runs.push_back({page_idx, ShardRows::kInRows,
                        static_cast<std::uint32_t>(n), first});
    return true;
}

/**
 * Lay every shard's runs out in global page order, each row copied
 * once into an output sized exactly. Page indices are unique across
 * shards and a page's runs ascend, so (page, first) is a total order.
 * Rows a device or chained shard holds are already in @p proj's layout
 * and copy whole; rows still in a streamed page are projected out of
 * it. A lone shard whose rows already sit in its rows buffer in page
 * order (every single-drive device or chained scan) is moved as is;
 * @p stats.rows_assembled counts the rows copied here.
 */
RowSet
assembleRows(const Schema &schema, const Projection &proj,
             std::vector<ShardRows> &per_shard, DbStats &stats)
{
    struct At
    {
        const ShardRows::Run *run;
        ShardRows *shard;
    };
    std::vector<At> order;
    std::size_t total = 0, filled = 0;
    for (ShardRows &sr : per_shard) {
        filled += sr.runs.empty() ? 0 : 1;
        for (const ShardRows::Run &r : sr.runs) {
            order.push_back({&r, &sr});
            total += r.n;
        }
    }
    auto before = [](const At &a, const At &b) {
        return a.run->page != b.run->page ? a.run->page < b.run->page
                                          : a.run->first < b.run->first;
    };
    const bool sorted = std::is_sorted(order.begin(), order.end(), before);
    if (filled == 1 && sorted && order.front().shard->pages.empty())
        return std::move(order.front().shard->rows);
    if (!sorted)
        std::sort(order.begin(), order.end(), before);

    const Bytes w = schema.rowWidth();
    const Bytes out_w = proj.schema().rowWidth();
    RowSet out(proj.schema());
    std::uint8_t *dst = out.appendSlots(total);
    stats.rows_assembled += total;
    // A page's runs are adjacent in this order: resolve each streamed
    // page once, and hold its view only while copying from it.
    const ShardRows::StreamedPage *resolved = nullptr;
    sim::BufferView view;
    for (const At &a : order) {
        const ShardRows::Run &r = *a.run;
        if (r.source == ShardRows::kInRows) {
            std::memcpy(dst, a.shard->rows.slot(r.first), r.n * out_w);
        } else {
            const ShardRows::StreamedPage &p = a.shard->pages[r.source];
            if (resolved != &p) {
                view = a.shard->dev->pageView(p.lpn, p.offset, p.len);
                resolved = &p;
            }
            proj.copy(dst, view.data() + r.first * w, r.n);
        }
        dst += r.n * out_w;
    }
    return out;
}

/**
 * Run @p work(s) for every shard of @p table: inline when there is
 * one shard (the historical code path, tick-for-tick), on one fiber
 * per shard when the table spans drives so the per-drive work
 * overlaps in simulated time.
 */
template <class Fn>
void
forEachShard(MiniDb &db, Table &table, const char *what,
             const Fn &work)
{
    sim::fanOut(db.env().kernel, table.shardCount(),
                [&](std::uint32_t s) {
                    return std::string(what) + "." + table.name() +
                           ".drive" + std::to_string(s);
                },
                work);
}

/**
 * Zone-map prune of @p table for this scan, when the statistics
 * layer is enabled and applicable. pruned=false streams every shard
 * whole, as the one run (0, shardPageCount).
 */
struct ScanPrune
{
    PrunePlan plan;
    bool pruned = false;

    /** Local (first, count) page runs shard @p s streams. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    runs(const Table &table, std::uint32_t s) const
    {
        if (!pruned)
            return {{0, table.shardPageCount(s)}};
        return shardPruneRuns(table, plan, s);
    }
};

ScanPrune
scanPrune(MiniDb &db, Table &table, const ExprPtr &pred)
{
    ScanPrune sp;
    if (!db.planner.use_stats || !pred || !table.stats())
        return sp;
    sp.plan = planPrune(table, *pred);
    sp.pruned = sp.plan.usable &&
                sp.plan.pages_selected < sp.plan.pages_total;
    return sp;
}

/** Prune bookkeeping: DbStats counters + db.prune.* obs counters. */
void
notePrune(MiniDb &db, DbStats &stats, const PrunePlan &plan)
{
    stats.prune_chunks_considered += plan.chunks_considered;
    stats.prune_chunks_skipped += plan.chunks_skipped;
    stats.prune_pages_skipped +=
        plan.pages_total - plan.pages_selected;
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.chunks_considered", "chunks"),
              plan.chunks_considered);
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.chunks_skipped", "chunks"),
              plan.chunks_skipped);
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.pages_skipped", "pages"),
              plan.pages_total - plan.pages_selected);
}

/** |predicted - measured| as a percentage of @p measured (> 0). */
double
errPct(Tick predicted, Tick measured)
{
    return 100.0 *
           std::abs(static_cast<double>(predicted) -
                    static_cast<double>(measured)) /
           static_cast<double>(measured);
}

/** db.place.* metrics of a planned scan (BISCUIT_OBS-gated; never
 *  read back into any timing or placement decision). */
void
notePlacement(MiniDb &db, const PlacementPlan &plan, Tick measured)
{
    auto &obs = db.env().kernel.obs();
    std::uint64_t dev_stages = 0;
    for (const Site &site : plan.sites)
        if (!site.on_host)
            ++dev_stages;
    OBS_COUNT(obs.metrics().counter("db.place.plans", "plans"));
    OBS_COUNT(obs.metrics().counter("db.place.stages_device",
                                    "stages"),
              dev_stages);
    OBS_COUNT(obs.metrics().counter("db.place.stages_host", "stages"),
              plan.sites.size() - dev_stages);
    OBS_COUNT(obs.metrics().counter("db.place.predicted_us", "us"),
              plan.predicted / 1000);
    OBS_COUNT(obs.metrics().counter("db.place.measured_us", "us"),
              measured / 1000);
    OBS_COUNT(obs.metrics().counter("db.place.pipeline.edges_priced",
                                    "edges"),
              plan.edges_priced);
    OBS_COUNT(obs.metrics().counter(
                  "db.place.pipeline.edge_predicted_us", "us"),
              plan.edge_ticks / 1000);
    if (measured > 0) {
        OBS_HIST(obs.metrics().histogram(
                     "db.place.abs_err_pct", "pct",
                     {1, 2, 5, 10, 20, 35, 50, 75, 100}),
                 static_cast<std::uint64_t>(
                     errPct(plan.predicted, measured)));
    }
}

/**
 * The table scan executor. @p sites places every stage of the scan:
 * per-shard matcher scans [0, n) and per-shard exact re-checks
 * [n, 2n); a missing site is the host. Each shard, on its own fiber
 * when the table spans drives, runs in the shape its pair of sites
 * gives:
 *
 *   (host, host):     stream the shard to the host, check there;
 *   (device, host):   matcher on the drive ships candidate pages,
 *                     the host re-checks them;
 *   (device, device): matcher and re-check chained in-drive through
 *                     the typed FBP port — one application, one core
 *                     slot, only matching *rows* cross the HIL.
 *
 * Rows land in the result in global page order (assembleRows), so
 * results are byte-identical across shapes and drive counts. A host
 * shard's matching rows are copied once, from the streamed pages into
 * the result. A device or chained shard projects its rows out of the
 * received Packets first; that copy is the result itself when it is
 * the only shard with matches. Either way only the cells of
 * @p columns are copied (Projection). A decision that carries a placed
 * plan (d.query, launched by the caller) also gets the planned-scan
 * extras: the placement trace, matched-page feedback for the next plan
 * and the db.place.* metrics.
 */
PackedScan
runScan(MiniDb &db, Table &table, const ExprPtr &pred,
        const PlanDecision &d, const std::vector<Site> &sites,
        const char *op, const std::vector<int> &columns, DbStats &stats)
{
    OpTimer timer(db, stats, op);
    const Tick begin = db.env().kernel.now();
    PackedScan out;

    auto &host = db.host();
    const Bytes page_size = table.pageSize();
    const Bytes row_width = table.schema().rowWidth();
    const std::uint32_t nshards = table.shardCount();
    const ScanPrune sp = scanPrune(db, table, pred);
    const BoundPred match(pred, table.schema());

    auto siteOf = [&](std::uint32_t stage) {
        return stage < sites.size() ? sites[stage] : Site{true, 0};
    };
    auto chained = [&](std::uint32_t s) {
        const Site scan = siteOf(s);
        const Site re = siteOf(nshards + s);
        return !scan.on_host && !re.on_host &&
               scan.drive == re.drive;
    };
    bool any_device = false;
    for (std::uint32_t s = 0; s < nshards; ++s)
        any_device = any_device || !siteOf(s).on_host;
    out.used_ndp = any_device;
    if (any_device)
        driveModules(db, "minidb");

    // The partial page (fewer than rowsPerPage rows) is always the
    // table's last global page; the in-drive re-check needs its local
    // address to bound row iteration exactly like the host side does.
    const std::uint64_t rem =
        table.pageCount() == 0
            ? 0
            : table.rowCount() % table.rowsPerPage();
    const std::uint64_t last_page =
        table.pageCount() == 0 ? 0 : table.pageCount() - 1;

    // matched_pages: pages holding at least one exact match, wherever
    // the re-check ran. selected_pages: what measured_selectivity
    // reports — pages a device shard shipped, matched pages of a host
    // shard.
    std::uint64_t matched_pages = 0;
    std::uint64_t selected_pages = 0;
    const Projection proj(table, columns, "scan");
    std::vector<ShardRows> per_shard;
    per_shard.reserve(nshards);
    for (std::uint32_t s = 0; s < nshards; ++s)
        per_shard.emplace_back(RowSet(proj.schema()));

    auto hostShard = [&](std::uint32_t s) {
        per_shard[s].dev = &host.deviceOf(s);
        const std::vector<ftl::Lpn> &lpns =
            host.fsOf(s).pagesOf(table.file());
        auto onWindow = [&](Bytes, Bytes len,
                            const host::StreamPages &pages) {
            host.consumeCpuPerByte(
                len, host.config().db_scan_ns_per_byte);
            pages.forEach([&](Bytes off, const sim::BufferView &page) {
                const std::uint64_t page_idx =
                    table.globalPage(s, off / page_size);
                ShardRows &mine = per_shard[s];
                const auto source =
                    static_cast<std::uint32_t>(mine.pages.size());
                const std::size_t before = mine.runs.size();
                forEachMatchRun(
                    table, match, page.data(), page.size(), page_idx,
                    stats, [&](std::uint64_t first, std::uint64_t n) {
                        mine.runs.push_back(
                            {page_idx, source,
                             static_cast<std::uint32_t>(n), first});
                    });
                if (mine.runs.size() == before)
                    return;
                mine.pages.push_back(
                    {lpns[off / page_size], off % page_size, page.size()});
                ++matched_pages;
                ++selected_pages;
            });
        };
        for (const auto &[first, count] : sp.runs(table, s)) {
            stats.pages_to_host += count;
            host.streamRead(s, table.file(), first * page_size,
                            count * page_size, 1_MiB, onWindow);
        }
    };

    // The shard's matcher SSDlet over the page runs it streams.
    auto makeScanLet = [&](sisc::Application &app, std::uint32_t s) {
        std::vector<std::uint64_t> runs;
        for (const auto &[first, count] : sp.runs(table, s)) {
            runs.push_back(first);
            runs.push_back(count);
        }
        return sisc::SSDLet(
            app, driveModules(db, "minidb")[s], "idScanFilter",
            std::make_tuple(slet::File(table.file()), d.keys.keys(),
                            static_cast<std::uint64_t>(page_size),
                            runs));
    };
    auto noteDeviceScan = [&](std::uint32_t s) {
        for (const auto &[first, count] : sp.runs(table, s))
            stats.pages_scanned_device += count;
    };

    // Matcher on the drive, exact re-check on the host: matcher-
    // selected *pages* cross the HIL.
    auto deviceShard = [&](std::uint32_t s) {
        sisc::SSD ssd(db.env().array.drive(s).runtime);
        sisc::Application app(ssd);
        sisc::SSDLet scan = makeScanLet(app, s);
        auto port = app.connectTo<Packet>(scan.out(0));
        app.start();
        noteDeviceScan(s);

        Packet batch;
        while (port.get(batch)) {
            auto n = batch.get<std::uint32_t>();
            for (std::uint32_t i = 0; i < n; ++i) {
                auto local_page = batch.get<std::uint64_t>();
                auto len = batch.get<std::uint32_t>();
                const std::uint8_t *data = batch.take(len);
                std::uint64_t page_idx =
                    table.globalPage(s, local_page);
                host.consumeCpuPerByte(
                    len, host.config().db_scan_ns_per_byte);
                if (copyMatches(table, match, proj, data, len, page_idx,
                                per_shard[s], stats))
                    ++matched_pages;
                ++stats.pages_to_host;
                ++selected_pages;
            }
            rt::recyclePacket(std::move(batch));
        }
        app.wait();
    };

    // Matcher and re-check chained in-drive: the scan SSDlet feeds
    // the re-check SSDlet over the typed port (sched + abstraction
    // per batch, no HIL crossing) and only matching rows ship.
    auto chainedShard = [&](std::uint32_t s) {
        sisc::SSD ssd(db.env().array.drive(s).runtime);
        sisc::Application app(ssd);
        sisc::SSDLet scan = makeScanLet(app, s);

        std::uint64_t partial_page = ~0ull;
        std::uint64_t partial_rows = 0;
        if (rem != 0 && table.shardOf(last_page) == s) {
            partial_page = table.localPage(last_page);
            partial_rows = rem;
        }
        const double recheck_cpu =
            host.config().db_scan_ns_per_byte *
            db.env().device.config().device_core_slowdown;
        sisc::SSDLet recheck(
            app, driveModules(db, "minidb")[s], "idRecheck",
            std::make_tuple(encodePredBlob(table.schema(), pred),
                            static_cast<std::uint64_t>(
                                table.rowsPerPage()),
                            partial_page, partial_rows,
                            recheck_cpu));
        app.connect(scan.out(0), recheck.in(0));
        auto port = app.connectTo<Packet>(recheck.out(0));
        app.start();
        noteDeviceScan(s);

        Packet batch;
        ShardRows &mine = per_shard[s];
        while (port.get(batch)) {
            auto n_pages = batch.get<std::uint32_t>();
            for (std::uint32_t i = 0; i < n_pages; ++i) {
                auto local_page = batch.get<std::uint64_t>();
                auto n_rows = batch.get<std::uint32_t>();
                std::uint64_t page_idx =
                    table.globalPage(s, local_page);
                host.consumeCpuPerByte(
                    static_cast<Bytes>(n_rows) * row_width,
                    host.config().db_scan_ns_per_byte);
                mine.runs.push_back({page_idx, ShardRows::kInRows, n_rows,
                                     mine.rows.size()});
                proj.copy(mine.rows.appendSlots(n_rows),
                          batch.take(static_cast<Bytes>(n_rows) * row_width),
                          n_rows);
                stats.rows_examined += n_rows;
                // Only matched pages reach the host at all here, as
                // row payloads rather than raw pages.
                ++matched_pages;
                ++stats.pages_to_host;
                ++selected_pages;
            }
            rt::recyclePacket(std::move(batch));
        }
        app.wait();
    };

    const std::string fibers = std::string("db.") + op;
    forEachShard(db, table, fibers.c_str(), [&](std::uint32_t s) {
        if (chained(s))
            chainedShard(s);
        else if (!siteOf(s).on_host)
            deviceShard(s);
        else
            hostShard(s);
    });
    out.rows = assembleRows(table.schema(), proj, per_shard, stats);
    if (sp.plan.usable)
        notePrune(db, stats, sp.plan);
    if (any_device)
        ++stats.ndp_scans;
    else
        ++stats.conv_scans;
    if (table.pageCount() > 0) {
        out.measured_selectivity =
            static_cast<double>(selected_pages) /
            static_cast<double>(table.pageCount());
    }
    const PlacementPlan &plan = d.query.plan();
    if (!plan.valid)
        return out;

    // Feedback for the next placement of this same scan: the exact
    // re-check decides what a matched page is, wherever it runs, so
    // every placement records the same fraction — and it supersedes
    // the histogram estimate, which cannot see row clustering.
    if (table.pageCount() > 0) {
        db.matched_page_frac[scanStatKey(table, d.keys)] =
            static_cast<double>(matched_pages) /
            static_cast<double>(table.pageCount());
    }
    out.placement = plan.describe();
    out.predicted_ticks = plan.predicted;
    out.measured_ticks = db.env().kernel.now() - begin;
    notePlacement(db, plan, out.measured_ticks);
    return out;
}

}  // namespace

const std::vector<std::uint64_t> &
driveModules(MiniDb &db, const std::string &name)
{
    MiniDb::ModuleLoad &state = db.modules[name];
    db.loadModulesOnce(state, [&] {
        const std::string path = "/var/isc/slets/" + name + ".slet";
        const std::uint32_t drives = db.host().driveCount();
        state.drive_ids.clear();
        state.drive_ids.reserve(drives);
        for (std::uint32_t d = 0; d < drives; ++d) {
            sisc::SSD ssd(db.env().array.drive(d).runtime);
            auto &fs = ssd.runtime().fs();
            if (!fs.exists(path))
                rt::ModuleRegistry::global().installModuleFile(fs, path,
                                                               name);
            state.drive_ids.push_back(
                ssd.loadModule(sisc::File(ssd, path)));
        }
    });
    return state.drive_ids;
}

void
warmMinidbModule(MiniDb &db)
{
    driveModules(db, "minidb");
}

Row
pointLookup(MiniDb &db, Table &table, std::uint64_t row_index,
            DbStats &stats)
{
    OpTimer timer(db, stats, "point_lookup");
    BISC_ASSERT(row_index < table.rowCount(), "lookup of row ",
                row_index, " beyond ", table.rowCount());
    auto &host = db.host();
    const Bytes page_size = table.pageSize();
    const std::uint64_t page = row_index / table.rowsPerPage();
    const std::uint32_t shard = table.shardOf(page);

    std::vector<std::uint8_t> buf(page_size);
    host.pread(shard, table.file(), table.localPage(page) * page_size,
               buf.data(), page_size);
    host.consumeCpuPerByte(page_size, host.config().db_scan_ns_per_byte);
    const std::uint64_t in_page = table.rowsInPage(page);
    const std::uint64_t slot = row_index % table.rowsPerPage();
    BISC_ASSERT(slot < in_page, "short page ", page, " in lookup");
    ++stats.pages_to_host;
    stats.rows_examined += in_page;
    return table.schema().decodeRow(buf.data() + slot * table.rowWidth());
}

bool
pointLookupByKey(MiniDb &db, Table &table, int key_col,
                 std::int64_t key, Row *out, DbStats &stats)
{
    OpTimer timer(db, stats, "point_lookup");
    auto &host = db.host();
    const Schema &schema = table.schema();
    BISC_ASSERT(schema.at(static_cast<std::size_t>(key_col)).type ==
                    Type::Int64,
                "keyed lookup needs an Int64 column");
    const Bytes page_size = table.pageSize();
    const Bytes row_width = schema.rowWidth();
    const Bytes key_off =
        schema.offsetOf(static_cast<std::size_t>(key_col));

    std::vector<std::uint8_t> buf(page_size);
    auto probePage = [&](std::uint64_t page) {
        host.pread(table.shardOf(page), table.file(),
                   table.localPage(page) * page_size, buf.data(),
                   page_size);
        host.consumeCpuPerByte(page_size,
                               host.config().db_scan_ns_per_byte);
        ++stats.pages_to_host;
        const std::uint64_t n = table.rowsInPage(page);
        stats.rows_examined += n;
        for (std::uint64_t i = 0; i < n; ++i) {
            std::int64_t v;
            std::memcpy(&v, buf.data() + i * row_width + key_off, 8);
            if (v == key) {
                *out = schema.decodeRow(buf.data() + i * row_width);
                return true;
            }
        }
        return false;
    };

    std::shared_ptr<const TableStats> ts = table.stats();
    if (!ts) {
        for (std::uint64_t p = 0; p < table.pageCount(); ++p) {
            if (probePage(p))
                return true;
        }
        return false;
    }

    // Zone maps route the probe: page runs whose [min, max] excludes
    // the key are never read. Inside a candidate chunk, guess the
    // page as if keys were dense ascending (exact for o_orderkey);
    // fall back to scanning the chunk when the guess misses.
    std::uint64_t considered = 0, skipped = 0, pages_skipped = 0;
    bool found = false;
    for (const ChunkStats &chunk : ts->chunks) {
        ++considered;
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(key_col));
        const double k = static_cast<double>(key);
        if (k < z.num_min || k > z.num_max) {
            ++skipped;
            pages_skipped += chunk.page_count;
            continue;
        }
        const std::uint64_t guess =
            chunk.first_page +
            std::min<std::uint64_t>(
                chunk.page_count - 1,
                static_cast<std::uint64_t>(k - z.num_min) /
                    table.rowsPerPage());
        if (probePage(guess)) {
            found = true;
            break;
        }
        for (std::uint64_t p = chunk.first_page;
             p < chunk.first_page + chunk.page_count && !found; ++p) {
            if (p != guess)
                found = probePage(p);
        }
        if (found)
            break;
    }
    stats.prune_chunks_considered += considered;
    stats.prune_chunks_skipped += skipped;
    stats.prune_pages_skipped += pages_skipped;
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.chunks_considered", "chunks"),
              considered);
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.chunks_skipped", "chunks"),
              skipped);
    OBS_COUNT(db.env().kernel.obs().metrics().counter(
                  "db.prune.pages_skipped", "pages"),
              pages_skipped);
    return found;
}

std::uint64_t
ndpSamplePages(MiniDb &db, Table &table, const pm::KeySet &keys,
               const std::vector<std::uint64_t> &pages, DbStats &stats)
{
    OpTimer timer(db, stats, "sample");
    const std::vector<std::uint64_t> &minidb =
        driveModules(db, "minidb");

    // Route each sampled global page to the shard that owns it; each
    // drive probes its own slice in parallel with the others.
    std::vector<std::vector<std::uint64_t>> local(table.shardCount());
    for (std::uint64_t g : pages)
        local[table.shardOf(g)].push_back(table.localPage(g));

    std::uint64_t matched = 0;
    forEachShard(db, table, "db.sample", [&](std::uint32_t s) {
        if (local[s].empty())
            return;
        sisc::SSD ssd(db.env().array.drive(s).runtime);
        sisc::Application app(ssd);
        sisc::SSDLet sampler(
            app, minidb[s], "idSample",
            std::make_tuple(slet::File(table.file()),
                            keys.keys(),
                            static_cast<std::uint64_t>(
                                table.pageSize()),
                            local[s]));
        auto port = app.connectTo<std::uint64_t>(sampler.out(0));
        app.start();
        std::uint64_t v = 0;
        while (port.get(v))
            matched += v;
        app.wait();
    });
    stats.sample_pages += pages.size();
    return matched;
}

std::string
scanStatKey(const Table &table, const pm::KeySet &keys)
{
    std::string key = table.name();
    for (const auto &k : keys.keys()) {
        key += '|';
        key += k;
    }
    return key;
}

namespace {

/** Percent-bucket layout for the db.prune.*_sel_pct histograms. */
std::vector<std::uint64_t>
selPctBounds()
{
    return {1, 2, 5, 10, 20, 35, 50, 75, 100};
}

/** Record predicted-vs-measured page selectivity (observability). */
void
noteSelectivity(MiniDb &db, const ScanInfo &out)
{
    if (out.est_selectivity >= 0.0) {
        OBS_HIST(db.env().kernel.obs().metrics().histogram(
                     "db.prune.est_sel_pct", "%", selPctBounds()),
                 static_cast<std::uint64_t>(out.est_selectivity *
                                            100.0));
    }
    if (out.measured_selectivity >= 0.0) {
        OBS_HIST(db.env().kernel.obs().metrics().histogram(
                     "db.prune.meas_sel_pct", "%", selPctBounds()),
                 static_cast<std::uint64_t>(out.measured_selectivity *
                                            100.0));
    }
}

}  // namespace

PackedScan
scanTablePacked(MiniDb &db, Table &table, const ExprPtr &pred,
                EngineMode mode, DbStats &stats,
                const std::vector<int> &columns)
{
    if (mode != EngineMode::Biscuit) {
        PackedScan out =
            runScan(db, table, pred, PlanDecision{}, {}, "conv_scan",
                    columns, stats);
        out.note = "conventional scan";
        return out;
    }

    // The decision as stage sites, run under the op_ticks label its
    // path reports: no offload streams every shard to the host, the
    // threshold offload puts every matcher on its shard's drive, and
    // a placer plan brings its own sites.
    PlanDecision d = decideOffload(db, table, pred, stats);
    std::vector<Site> sites;
    const char *op = "conv_scan";
    if (d.query.plan().valid) {
        sites = d.query.launch().sites;
        op = db.planner.use_pipeline ? "pipelined_scan" : "placed_scan";
    } else if (d.offload) {
        for (std::uint32_t s = 0; s < table.shardCount(); ++s)
            sites.push_back(Site{false, s});
        op = "ndp_scan";
    }
    PackedScan out =
        runScan(db, table, pred, d, sites, op, columns, stats);
    out.sampled_selectivity = d.sampled_selectivity;
    out.est_selectivity = d.est_selectivity;
    out.note = d.note;
    if (out.measured_ticks > 0) {
        char pbuf[96];
        std::snprintf(pbuf, sizeof(pbuf),
                      "; predicted %.3f ms, measured %.3f ms "
                      "(err %.0f%%)",
                      static_cast<double>(out.predicted_ticks) / 1e6,
                      static_cast<double>(out.measured_ticks) /
                          1e6,
                      errPct(out.predicted_ticks, out.measured_ticks));
        out.note += pbuf;
    }
    if (db.planner.use_stats)
        noteSelectivity(db, out);
    return out;
}

ScanOutcome
scanTable(MiniDb &db, Table &table, const ExprPtr &pred,
          EngineMode mode, DbStats &stats)
{
    PackedScan packed = scanTablePacked(db, table, pred, mode, stats);
    ScanOutcome out;
    static_cast<ScanInfo &>(out) = std::move(packed);
    out.rows = packed.rows.toRows();
    return out;
}

namespace {

/**
 * Functional side of bnlJoin(), templated over the join-key type and
 * each side's key function (slot -> Key). The probe only ever looks
 * up keys present in the outer side, so inner slots with other keys
 * are dropped without being copied; a matching one is read (predicate
 * and key) from its table slot and copied through @p proj. Each outer
 * key heads a chain of its matching inner rows, newest first: the row
 * order every query result has always had (tpch_answers_test pins
 * it).
 */
template <class Key, class OuterKey, class InnerKey>
RowSet
hashJoinSlots(const RowSet &outer, Table &inner, const Projection &proj,
              const ExprPtr &inner_pred, const OuterKey &outerKey,
              const InnerKey &innerKey, std::uint64_t *matched_rows)
{
    constexpr std::uint32_t kNone = ~0u;
    const Bytes ow = outer.rowWidth();
    const Bytes iw = proj.schema().rowWidth();

    // Outer key -> newest matching inner row (kNone: none yet).
    std::unordered_map<Key, std::uint32_t> head;
    head.reserve(outer.size());
    for (std::size_t i = 0; i < outer.size(); ++i)
        head.try_emplace(outerKey(outer.slot(i)), kNone);

    const BoundPred inner_match(inner_pred, inner.schema());
    RowSet matched(proj.schema());    // kept cells of matching rows
    std::vector<std::uint32_t> next;  // older match of the same key
    inner.forEachSlot([&](const std::uint8_t *slot) {
        if (!inner_match.matches(slot))
            return;
        auto it = head.find(innerKey(slot));
        if (it == head.end())
            return;
        next.push_back(it->second);
        it->second = static_cast<std::uint32_t>(next.size() - 1);
        proj.copy(matched.appendSlots(1), slot, 1);
    });
    *matched_rows = matched.size();

    RowSet out(Schema::concat(outer.schema(), proj.schema()));
    for (std::size_t i = 0; i < outer.size(); ++i) {
        const std::uint8_t *o = outer.slot(i);
        for (std::uint32_t m = head.find(outerKey(o))->second; m != kNone;
             m = next[m]) {
            std::uint8_t *dst = out.appendSlots(1);
            copyCells(dst, o, ow);
            copyCells(dst + ow, matched.slot(m), iw);
        }
    }
    return out;
}

/**
 * Unified-pipeline timing side of bnlJoin (use_unified_pipelines):
 * the inner side modeled as the same placeable DAG as cost-model
 * scans — per-shard Scan feeding a colocatable outer-key prefilter
 * Transform (the PR 3 semi-join filter) feeding the host probe Merge
 * — placed by the annealer (through the session when attached). A
 * host-placed shard keeps the legacy block-nested-loop passes; a
 * device-placed shard runs ONE semi-scan SSDlet pass and ships only
 * the (exactly known, since the functional join ran first) matched
 * rows, with later blocks re-probing those rows on the host instead
 * of re-reading the shard. Join rows are computed before this runs
 * and are untouched — byte-identical to the legacy path at any
 * placement.
 */
void
placedJoinTiming(MiniDb &db, Table &inner, std::uint64_t blocks,
                 std::uint64_t matched_rows, DbStats &stats)
{
    auto &host = db.host();
    const std::uint32_t n = inner.shardCount();
    const Bytes page = inner.pageSize();
    const Bytes row_width = inner.schema().rowWidth();
    const Bytes matched_bytes = matched_rows * row_width;
    const Bytes inner_bytes = inner.pageCount() * page;
    const double matched_frac =
        inner_bytes == 0
            ? 0.0
            : std::min(1.0, static_cast<double>(matched_bytes) /
                                static_cast<double>(inner_bytes));

    // Scan [0, n) -> prefilter Transform [n, 2n) -> probe Merge (2n),
    // the cost-model scan's DAG, with the prefilter's exact
    // selectivity known up front.
    PlannedQuery query(
        db,
        buildPipelineGraph(db, inner,
                           buildScanStages(db, inner, nullptr,
                                           matched_frac),
                           matched_frac),
        db.planner.place_force);
    const PlacementPlan &plan = query.launch();
    auto siteOf = [&](std::uint32_t s) {
        return plan.valid && s < plan.sites.size() ? plan.sites[s]
                                                   : Site{true, 0};
    };
    bool any_device = false;
    Bytes dev_matched_bytes = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (siteOf(s).on_host)
            continue;
        any_device = true;
        dev_matched_bytes += static_cast<Bytes>(
            static_cast<double>(inner.shardPageCount(s) * page) *
            matched_frac);
    }
    if (any_device)
        driveModules(db, "minidb");

    const double semi_cpu =
        host.config().db_scan_ns_per_byte *
        db.env().device.config().device_core_slowdown;
    forEachShard(db, inner, "db.bnl.place", [&](std::uint32_t s) {
        if (!siteOf(s).on_host) {
            // One device pass replaces every per-block re-read.
            sisc::SSD ssd(db.env().array.drive(s).runtime);
            sisc::Application app(ssd);
            sisc::SSDLet semi(
                app, driveModules(db, "minidb")[s], "idSemiScan",
                std::make_tuple(slet::File(inner.file()),
                                semi_cpu));
            auto port = app.connectTo<std::uint64_t>(semi.out(0));
            app.start();
            std::uint64_t scanned = 0;
            while (port.get(scanned)) {
            }
            app.wait();
            stats.pages_scanned_device += inner.shardPageCount(s);
            return;
        }
        for (std::uint64_t b = 0; b < blocks; ++b) {
            host.streamReadTimed(
                s, inner.file(), 0, inner.shardPageCount(s) * page,
                1_MiB, [&](Bytes, Bytes len) {
                    host.consumeCpuPerByte(
                        len, host.config().db_scan_ns_per_byte);
                });
            stats.pages_to_host += inner.shardPageCount(s);
        }
    });
    if (any_device) {
        // Matched rows of device shards cross the HIL once; every
        // block re-probes them from host memory at scan cost.
        stats.pages_to_host += divCeil<Bytes>(dev_matched_bytes,
                                              std::max<Bytes>(page, 1));
        host.consumeCpuPerByte(dev_matched_bytes * blocks,
                               host.config().db_scan_ns_per_byte);
    }
    stats.rows_examined += inner.rowCount() * blocks;
}

}  // namespace

RowSet
bnlJoin(MiniDb &db, const RowSet &outer, Bytes outer_width,
        int outer_col, Table &inner, int inner_col,
        const ExprPtr &inner_pred, DbStats &stats,
        const std::vector<int> &inner_columns)
{
    OpTimer timer(db, stats, "bnl_join");
    const Projection proj(inner, inner_columns, "join");
    if (outer.empty())
        return RowSet(Schema::concat(outer.schema(), proj.schema()));
    auto &host = db.host();

    // Keys by slot bytes (SlotKey): an Int64 key as itself, a text key
    // padded to the wider side's width, a Double key as its "%.2f".
    const Column &oc = outer.schema().at(static_cast<std::size_t>(outer_col));
    const Column &ic = inner.schema().at(static_cast<std::size_t>(inner_col));
    BISC_ASSERT(oc.type == ic.type || (isText(oc.type) && isText(ic.type)),
                "join key columns '", oc.name, "' and '", ic.name,
                "' differ in type");
    std::uint64_t matched_rows = 0;
    RowSet out;
    if (ic.type == Type::Int64) {
        const Bytes o_off =
            outer.schema().offsetOf(static_cast<std::size_t>(outer_col));
        const Bytes i_off =
            inner.schema().offsetOf(static_cast<std::size_t>(inner_col));
        auto at = [](Bytes off) {
            return [off](const std::uint8_t *slot) {
                std::int64_t v;
                std::memcpy(&v, slot + off, 8);
                return v;
            };
        };
        out = hashJoinSlots<std::int64_t>(outer, inner, proj, inner_pred,
                                          at(o_off), at(i_off),
                                          &matched_rows);
    } else {
        const Bytes w = std::max(oc.width, ic.width);
        const SlotKey ok(outer.schema(), {outer_col}, w);
        const SlotKey ik(inner.schema(), {inner_col}, w);
        auto text = [](const SlotKey &k) {
            return [&k](const std::uint8_t *slot) {
                std::string key;
                k.write(slot, key);
                return key;
            };
        };
        out = hashJoinSlots<std::string>(outer, inner, proj, inner_pred,
                                         text(ok), text(ik), &matched_rows);
    }

    // Timing side: block-nested-loop — the inner table is re-read in
    // full once per join-buffer block of outer rows. This is the
    // magnification effect of early filtering: fewer outer rows means
    // fewer physical passes over the inner table.
    Bytes outer_bytes = outer.size() * outer_width;
    std::uint64_t blocks = divCeil<Bytes>(outer_bytes, kJoinBuffer);
    if (db.planner.use_unified_pipelines && db.planner.use_pipeline &&
        inner.pageCount() > 0) {
        // Unified gate: the inner side becomes a placeable
        // scan -> prefilter -> probe DAG (device shards semi-scan
        // once instead of once per block). Rows already computed
        // above — identical at any placement.
        placedJoinTiming(db, inner, blocks, matched_rows, stats);
        host.consumeCpu(kRowCpu * (outer.size() + out.size()));
        return out;
    }
    for (std::uint64_t b = 0; b < blocks; ++b) {
        // The pass only contributes time (the rows are already in the
        // functional hash above), so skip materializing the bytes. A
        // sharded inner reads its per-drive slices concurrently
        // within each pass.
        forEachShard(db, inner, "db.bnl", [&](std::uint32_t s) {
            host.streamReadTimed(
                s, inner.file(), 0,
                inner.shardPageCount(s) * inner.pageSize(), 1_MiB,
                [&](Bytes, Bytes len) {
                    host.consumeCpuPerByte(
                        len, host.config().db_scan_ns_per_byte);
                });
        });
        stats.pages_to_host += inner.pageCount();
        stats.rows_examined += inner.rowCount();
    }

    host.consumeCpu(kRowCpu * (outer.size() + out.size()));
    return out;
}

RowSet
groupBy(MiniDb &db, const RowSet &rows, const std::vector<int> &key_cols,
        const std::vector<AggSpec> &aggs, DbStats &stats)
{
    OpTimer timer(db, stats, "group_by");
    const Schema &in = rows.schema();
    const std::size_t naggs = aggs.size();
    struct AggInput
    {
        std::size_t agg;
        NumColumn column;
    };
    std::vector<AggInput> inputs;
    for (std::size_t a = 0; a < naggs; ++a) {
        if (aggs[a].column >= 0)
            inputs.push_back({a, NumColumn(in, aggs[a].column)});
    }

    // Per group, flat across groups: the first row (source of the
    // output key values), the row count, and per aggregate the
    // running sum, min and max.
    struct Acc
    {
        double sum = 0.0, min = 0.0, max = 0.0;
    };
    std::vector<std::size_t> first_row;
    std::vector<std::uint64_t> counts;
    std::vector<Acc> accs;  // naggs per group
    const SlotKey key(in, key_cols);
    U64Groups packed_groups;
    std::unordered_map<std::string, std::uint32_t> text_groups;
    std::string text_key;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::uint8_t *slot = rows.slot(r);
        const auto next = static_cast<std::uint32_t>(first_row.size());
        std::uint32_t g;
        if (key.packs()) {
            g = packed_groups.find(key.packed(slot), next);
        } else {
            key.write(slot, text_key);
            g = text_groups.try_emplace(text_key, next).first->second;
        }
        const bool fresh = g == next;
        if (fresh) {
            first_row.push_back(r);
            counts.push_back(0);
            accs.resize(accs.size() + naggs);
        }
        Acc *acc = accs.data() + g * naggs;
        for (const AggInput &x : inputs) {
            const double v = x.column(slot);
            Acc &a = acc[x.agg];
            a.sum += v;
            if (fresh || v < a.min)
                a.min = v;
            if (fresh || v > a.max)
                a.max = v;
        }
        ++counts[g];
    }
    db.host().consumeCpu(kRowCpu * rows.size());

    std::vector<Column> cols;
    for (int c : key_cols)
        cols.push_back(in.at(static_cast<std::size_t>(c)));
    for (const AggSpec &agg : aggs) {
        cols.push_back(agg.op == AggSpec::Op::Count
                           ? col("count", Type::Int64)
                           : col("agg", Type::Double));
    }
    RowSet out{Schema(std::move(cols))};
    const Schema &os = out.schema();

    // Emit groups in the order of their keys' valueToString() text,
    // built once per group from its first row. The texts are unique
    // (they identify a group as its slot key does), so a total order.
    std::vector<std::pair<std::string, std::uint32_t>> ordered(
        first_row.size());
    for (std::uint32_t g = 0; g < ordered.size(); ++g) {
        ordered[g].second = g;
        for (int c : key_cols) {
            appendSlotKey(ordered[g].first, rows.slot(first_row[g]), in, c);
            ordered[g].first += '\x01';
        }
    }
    std::sort(ordered.begin(), ordered.end());
    out.reserve(ordered.size());
    for (const auto &[text, g] : ordered) {
        std::uint8_t *dst = out.appendSlots(1);
        const std::uint8_t *src = rows.slot(first_row[g]);
        for (std::size_t k = 0; k < key_cols.size(); ++k) {
            const auto c = static_cast<std::size_t>(key_cols[k]);
            std::memcpy(dst + os.offsetOf(k), src + in.offsetOf(c),
                        in.at(c).width);
        }
        const Acc *acc = accs.data() + g * naggs;
        for (std::size_t a = 0; a < naggs; ++a) {
            std::uint8_t *cell = dst + os.offsetOf(key_cols.size() + a);
            double v = 0.0;
            switch (aggs[a].op) {
              case AggSpec::Op::Sum:
                v = acc[a].sum;
                break;
              case AggSpec::Op::Avg:
                v = acc[a].sum / static_cast<double>(counts[g]);
                break;
              case AggSpec::Op::Count: {
                auto n = static_cast<std::int64_t>(counts[g]);
                std::memcpy(cell, &n, 8);
                continue;
              }
              case AggSpec::Op::Min:
                v = acc[a].min;
                break;
              case AggSpec::Op::Max:
                v = acc[a].max;
                break;
            }
            std::memcpy(cell, &v, 8);
        }
    }
    return out;
}

namespace {

/** compareValues() of column @p col of two slots under @p s. */
int
compareSlots(const RowRef &a, const RowRef &b, const Schema &s, int col)
{
    const Type t = s.at(static_cast<std::size_t>(col)).type;
    if (t == Type::String || t == Type::Date) {
        std::string_view x = a.str(col), y = b.str(col);
        return x < y ? -1 : (x == y ? 0 : 1);
    }
    double x = a.num(col), y = b.num(col);
    return x < y ? -1 : (x == y ? 0 : 1);
}

}  // namespace

void
sortRows(RowSet &rows, const std::vector<std::pair<int, bool>> &keys)
{
    // Sort row indices, then permute the slots once. std::sort's moves
    // depend only on comparison outcomes, so tied rows end up exactly
    // where sorting the rows themselves would put them.
    const Schema &s = rows.schema();
    std::vector<std::uint32_t> order(rows.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<std::uint32_t>(i);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  for (auto [col, desc] : keys) {
                      int c = compareSlots(rows[a], rows[b], s, col);
                      if (c != 0)
                          return desc ? c > 0 : c < 0;
                  }
                  return false;
              });
    RowSet sorted(s);
    sorted.reserve(order.size());
    for (std::uint32_t i : order)
        sorted.append(rows.slot(i));
    rows = std::move(sorted);
}

RowSet
filterRows(MiniDb &db, const RowSet &rows, const ExprPtr &pred,
           DbStats &stats)
{
    OpTimer timer(db, stats, "filter");
    const BoundPred match(pred, rows.schema());
    RowSet out(rows.schema());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (match.matches(rows.slot(i)))
            out.append(rows.slot(i));
    }
    db.host().consumeCpu(kRowCpu * rows.size());
    stats.rows_examined += rows.size();
    return out;
}

}  // namespace bisc::db
