#include "graph/graph.h"

#include <algorithm>
#include <cstring>

#include "runtime/module.h"
#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "util/rng.h"

namespace bisc::graph {

namespace {

constexpr char kMagic[8] = {'B', 'I', 'S', 'C', 'G', 'R', 'P', 'H'};

/** Deterministic record content for vertex @p v. */
void
makeRecord(const GraphSpec &spec, std::uint64_t v, std::uint8_t *out)
{
    Rng rng(spec.seed ^ (v * 0x9e3779b97f4a7c15ull) ^ 0xb15c0117ull);
    std::uint32_t degree = static_cast<std::uint32_t>(
        1 + rng.zipf(2 * spec.avg_degree, spec.degree_skew));
    degree = std::min(degree, RecordLayout::kMaxNeighbors);

    std::memset(out, 0, RecordLayout::kRecordSize);
    std::memcpy(out, &degree, sizeof(degree));
    std::uint32_t pad = 0;
    std::memcpy(out + 4, &pad, sizeof(pad));
    for (std::uint32_t i = 0; i < degree; ++i) {
        std::uint64_t nbr = rng.below(spec.vertices);
        std::memcpy(out + 8 + 8ull * i, &nbr, sizeof(nbr));
    }
}

/** Starting vertex of walk @p w. */
std::uint64_t
walkStart(std::uint64_t seed, std::uint64_t w, std::uint64_t vertices)
{
    Rng rng(seed ^ (w * 0x2545f4914f6cdd1dull));
    return rng.below(vertices);
}

/** The 4 KiB-aligned block holding vertex @p v's record. */
Bytes
blockOf(std::uint64_t v)
{
    return RecordLayout::recordOffset(v) & ~Bytes{4095};
}

/**
 * Advance one hop given the 4 KiB block bytes; returns the next
 * vertex (self-loop when the record decodes empty).
 */
std::uint64_t
nextHop(const std::uint8_t *block, std::uint64_t v, Rng &rng)
{
    Bytes in_block = RecordLayout::recordOffset(v) % 4096;
    auto nbrs = GraphStore::decodeRecord(block + in_block,
                                         RecordLayout::kRecordSize);
    if (nbrs.empty())
        return v;
    return nbrs[rng.below(nbrs.size())];
}

}  // namespace

GraphStore
GraphStore::build(fs::FileSystem &fs, const std::string &path,
                  const GraphSpec &spec)
{
    BISC_ASSERT(spec.vertices > 0, "empty graph");
    Bytes total = RecordLayout::kHeaderSize +
                  spec.vertices * RecordLayout::kRecordSize;

    std::vector<std::uint8_t> record(RecordLayout::kRecordSize);
    fs.populateWith(path, total, [&](Bytes off, std::uint8_t *buf,
                                     Bytes n) {
        Bytes pos = off;
        Bytes end = off + n;
        while (pos < end) {
            if (pos < RecordLayout::kHeaderSize) {
                // Header page: magic + vertex count.
                Bytes hn = std::min<Bytes>(
                    RecordLayout::kHeaderSize - pos, end - pos);
                std::vector<std::uint8_t> header(
                    RecordLayout::kHeaderSize, 0);
                std::memcpy(header.data(), kMagic, sizeof(kMagic));
                std::memcpy(header.data() + 8, &spec.vertices,
                            sizeof(spec.vertices));
                std::memcpy(buf + (pos - off), header.data() + pos,
                            hn);
                pos += hn;
                continue;
            }
            std::uint64_t v =
                (pos - RecordLayout::kHeaderSize) /
                RecordLayout::kRecordSize;
            Bytes rec_start = RecordLayout::recordOffset(v);
            Bytes in_rec = pos - rec_start;
            Bytes rn = std::min<Bytes>(
                RecordLayout::kRecordSize - in_rec, end - pos);
            makeRecord(spec, v, record.data());
            std::memcpy(buf + (pos - off), record.data() + in_rec,
                        rn);
            pos += rn;
        }
    });
    return GraphStore(fs, path, spec.vertices);
}

GraphStore
GraphStore::open(fs::FileSystem &fs, const std::string &path)
{
    std::uint8_t header[16];
    Bytes n = fs.peek(path, 0, sizeof(header), header);
    BISC_ASSERT(n == sizeof(header) &&
                    std::memcmp(header, kMagic, sizeof(kMagic)) == 0,
                "not a graph store: ", path);
    std::uint64_t vertices;
    std::memcpy(&vertices, header + 8, sizeof(vertices));
    return GraphStore(fs, path, vertices);
}

Bytes
GraphStore::fileSize() const
{
    return fs_->size(path_);
}

std::vector<std::uint64_t>
GraphStore::decodeRecord(const std::uint8_t *rec, Bytes len)
{
    if (len < 8)
        return {};
    std::uint32_t degree;
    std::memcpy(&degree, rec, sizeof(degree));
    degree = std::min(degree, RecordLayout::kMaxNeighbors);
    std::vector<std::uint64_t> nbrs(degree);
    for (std::uint32_t i = 0; i < degree; ++i)
        std::memcpy(&nbrs[i], rec + 8 + 8ull * i, 8);
    return nbrs;
}

std::vector<std::uint64_t>
GraphStore::neighborsOf(std::uint64_t v) const
{
    std::uint8_t rec[RecordLayout::kRecordSize];
    fs_->peek(path_, RecordLayout::recordOffset(v),
              RecordLayout::kRecordSize, rec);
    return decodeRecord(rec, sizeof(rec));
}

ChaseResult
chaseConv(host::HostSystem &host, const GraphStore &graph,
          const ChaseSpec &spec)
{
    auto &kernel = host.kernel();
    auto &fs = host.fsOf(0);
    auto &dev = host.deviceOf(0);
    const Bytes page = fs.pageSize();

    ChaseResult result;
    Tick t0 = kernel.now();
    std::vector<std::uint8_t> block(4096);
    for (std::uint64_t w = 0; w < spec.walks; ++w) {
        Rng rng(spec.seed ^ (w + 1));
        std::uint64_t v =
            walkStart(spec.seed, w, graph.vertices());
        for (std::uint32_t h = 0; h < spec.hops; ++h) {
            Bytes off = blockOf(v);
            // One data-dependent 4 KiB read over NVMe.
            ftl::Lpn lpn = fs.lpnAt(graph.path(), off);
            Tick done = dev.hostRead(lpn, off % page, 4096, nullptr);
            kernel.sleepUntil(done);
            fs.peek(graph.path(), off, 4096, block.data());
            // Host-side next-pointer logic, plus the kernel I/O path
            // CPU that stretches under memory load.
            host.consumeCpu(spec.host_hop_cpu);
            double extra = host.contentionFactor() - 1.0;
            if (extra > 0) {
                kernel.sleep(static_cast<Tick>(
                    static_cast<double>(
                        host.config().io_cpu_portion) *
                    extra));
            }
            v = nextHop(block.data(), v, rng);
            result.visited_sum += v;
            ++result.hops;
        }
    }
    result.elapsed = kernel.now() - t0;
    return result;
}

namespace {

/** The chaser SSDlet: performs the walks with internal reads. */
class ChaseLet
    : public slet::SSDLet<
          slet::In<>, slet::Out<std::pair<std::uint64_t, std::uint64_t>>,
          slet::Arg<slet::File, std::uint64_t, std::uint32_t,
                    std::uint64_t, std::uint64_t, std::uint64_t>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        std::uint64_t walks = arg<1>();
        std::uint32_t hops = arg<2>();
        std::uint64_t seed = arg<3>();
        std::uint64_t vertices = arg<4>();
        Tick hop_cpu = arg<5>();

        std::uint64_t sum = 0, total_hops = 0;
        std::vector<std::uint8_t> block(4096);
        for (std::uint64_t w = 0; w < walks; ++w) {
            Rng rng(seed ^ (w + 1));
            std::uint64_t v = walkStart(seed, w, vertices);
            for (std::uint32_t h = 0; h < hops; ++h) {
                file.read(blockOf(v), block.data(), 4096);
                consumeCpu(hop_cpu);
                v = nextHop(block.data(), v, rng);
                sum += v;
                ++total_hops;
            }
        }
        out<0>().put({sum, total_hops});
    }
};

DeclareModule("pchase", 73'920);
RegisterSSDLet("pchase", "idChase", ChaseLet);

}  // namespace

ChaseResult
chaseBiscuit(rt::Runtime &runtime, const GraphStore &graph,
             const ChaseSpec &spec)
{
    auto &kernel = runtime.kernel();
    ChaseResult result;
    Tick t0 = kernel.now();

    sisc::SSD ssd(runtime);
    if (!runtime.fs().exists("/var/isc/slets/pchase.slet")) {
        rt::ModuleRegistry::global().installModuleFile(
            runtime.fs(), "/var/isc/slets/pchase.slet", "pchase");
    }
    auto mid = ssd.loadModule(
        sisc::File(ssd, "/var/isc/slets/pchase.slet"));
    {
        sisc::Application app(ssd);
        sisc::SSDLet chaser(
            app, mid, "idChase",
            std::make_tuple(slet::File(graph.path()), spec.walks,
                            spec.hops, spec.seed, graph.vertices(),
                            static_cast<std::uint64_t>(
                                spec.device_hop_cpu)));
        auto port =
            app.connectTo<std::pair<std::uint64_t, std::uint64_t>>(
                chaser.out(0));
        app.start();
        std::pair<std::uint64_t, std::uint64_t> v;
        while (port.get(v)) {
            result.visited_sum += v.first;
            result.hops += v.second;
        }
        app.wait();
        ssd.unloadModule(mid);
    }
    result.elapsed = kernel.now() - t0;
    return result;
}

}  // namespace bisc::graph
