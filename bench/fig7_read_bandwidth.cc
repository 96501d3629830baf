/**
 * @file
 * Reproduces paper Fig. 7: bandwidth of synchronous (left) and
 * asynchronous (right, 32 outstanding) reads as a function of request
 * size, for the conventional host path (Conv), Biscuit's internal
 * read path, and the internal path with the hardware pattern matcher
 * enabled.
 *
 * Expected shape: Conv saturates at the PCIe Gen.3 x4 limit
 * (~3.2 GB/s); Biscuit's internal bandwidth exceeds it by >30%;
 * Biscuit+PM sits between the two (IP-control software overhead);
 * async reaches the plateau at much smaller request sizes than sync.
 */

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "host/host_system.h"
#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace {

using namespace bisc;

constexpr Bytes kFileSize = 256_MiB;
constexpr std::uint32_t kWindow = 32;

/** Device-side bandwidth probe: sync / async / pattern-matched. */
class BwLet : public slet::SSDLet<
                  slet::In<>,
                  slet::Out<std::pair<std::uint64_t, std::uint64_t>>,
                  slet::Arg<slet::File, std::string, std::uint64_t,
                            std::uint64_t>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        const std::string &mode = arg<1>();
        Bytes req = arg<2>();
        Bytes total = arg<3>();
        auto &k = context().runtime->kernel();

        Tick t0 = k.now();
        if (mode == "sync") {
            for (Bytes off = 0; off < total; off += req)
                file.read(off % kFileSize, nullptr, req);
        } else if (mode == "async") {
            std::deque<slet::File::Async> inflight;
            for (Bytes off = 0; off < total; off += req) {
                inflight.push_back(
                    file.readAsync(off % kFileSize, nullptr, req));
                if (inflight.size() >= kWindow) {
                    inflight.front().wait();
                    inflight.pop_front();
                }
            }
            while (!inflight.empty()) {
                inflight.front().wait();
                inflight.pop_front();
            }
        } else {  // "pm": streaming matched scan, no key ever hits
            pm::KeySet keys;
            keys.addKey("\x01\x02never-match");
            std::deque<slet::File::Async> inflight;
            for (Bytes off = 0; off < total; off += req) {
                inflight.push_back(file.scanMatched(
                    off % kFileSize, req, keys,
                    [](Bytes, const std::uint8_t *, Bytes,
                       const pm::MatchResult &) {}));
                if (inflight.size() >= 8) {
                    inflight.front().wait();
                    inflight.pop_front();
                }
            }
            while (!inflight.empty()) {
                inflight.front().wait();
                inflight.pop_front();
            }
        }
        out<0>().put({k.now() - t0, total});
    }
};

DeclareModule("bench_bw", 73'928);
RegisterSSDLet("bench_bw", "idBw", BwLet);

double
gbps(Bytes bytes, Tick elapsed)
{
    return static_cast<double>(bytes) / toSeconds(elapsed) / 1e9;
}

/** Conv series measured from the host program. */
double
convBandwidth(sisc::Env &env, host::HostSystem &host, Bytes req,
              Bytes total, bool async)
{
    auto &fs = env.fs;
    const Bytes page = fs.pageSize();
    const auto &table = fs.pagesOf("/data/bw");
    Tick t0 = env.kernel.now();
    if (!async) {
        for (Bytes off = 0; off < total; off += req)
            host.pread(0, "/data/bw", off % kFileSize, nullptr, req);
    } else {
        std::deque<Tick> inflight;
        for (Bytes off = 0; off < total; off += req) {
            Bytes start = off % kFileSize;
            std::vector<ftl::Lpn> pages;
            for (Bytes p = start / page;
                 p <= (start + req - 1) / page; ++p)
                pages.push_back(table[p]);
            inflight.push_back(
                env.device.hostReadPages(pages, nullptr));
            if (inflight.size() >= kWindow) {
                env.kernel.sleepUntil(inflight.front());
                inflight.pop_front();
            }
        }
        while (!inflight.empty()) {
            env.kernel.sleepUntil(inflight.front());
            inflight.pop_front();
        }
    }
    return gbps(total, env.kernel.now() - t0);
}

/** Biscuit series measured inside the device. */
double
biscuitBandwidth(sisc::Env &env, rt::ModuleId mid,
                 const std::string &mode, Bytes req, Bytes total)
{
    sisc::SSD ssd(env.runtime);
    sisc::Application app(ssd);
    sisc::SSDLet bw(app, mid, "idBw",
                    std::make_tuple(slet::File("/data/bw"), mode,
                                    static_cast<std::uint64_t>(req),
                                    static_cast<std::uint64_t>(total)));
    auto port =
        app.connectTo<std::pair<std::uint64_t, std::uint64_t>>(
            bw.out(0));
    app.start();
    std::pair<std::uint64_t, std::uint64_t> r{1, 0};
    while (port.get(r)) {
    }
    app.wait();
    return gbps(r.second, r.first);
}

}  // namespace

int
main()
{
    sisc::Env env(ssd::defaultConfig(), 1);
    host::HostSystem host(env.array);
    env.installModule("/bench_bw.slet", "bench_bw");
    env.fs.populateWith("/data/bw", kFileSize,
                        [](Bytes, std::uint8_t *buf, Bytes n) {
                            for (Bytes i = 0; i < n; ++i)
                                buf[i] = static_cast<std::uint8_t>(
                                    0x40 + i % 23);
                        });

    const std::vector<Bytes> sizes = {4_KiB,   16_KiB, 64_KiB,
                                      256_KiB, 1_MiB,  4_MiB};

    env.run([&] {
        sisc::SSD ssd(env.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/bench_bw.slet"));

        std::printf("Fig. 7 (left): synchronous read bandwidth "
                    "(GB/s)\n");
        std::printf("%10s %10s %10s\n", "req size", "Conv",
                    "Biscuit");
        for (Bytes sz : sizes) {
            Bytes total = std::max<Bytes>(sz * 8, 16_MiB);
            total = std::min<Bytes>(total, 64_MiB);
            double conv = convBandwidth(env, host, sz, total, false);
            double bisc =
                biscuitBandwidth(env, mid, "sync", sz, total);
            std::printf("%9lluK %10.2f %10.2f\n",
                        static_cast<unsigned long long>(sz >> 10),
                        conv, bisc);
        }

        std::printf("\nFig. 7 (right): asynchronous read bandwidth, "
                    "%u outstanding (GB/s)\n",
                    kWindow);
        std::printf("%10s %10s %10s %12s\n", "req size", "Conv",
                    "Biscuit", "Biscuit+PM");
        for (Bytes sz : sizes) {
            Bytes total = std::max<Bytes>(sz * 8, 64_MiB);
            total = std::min<Bytes>(total, 128_MiB);
            double conv = convBandwidth(env, host, sz, total, true);
            double bisc =
                biscuitBandwidth(env, mid, "async", sz, total);
            double pmbw = biscuitBandwidth(env, mid, "pm", sz, total);
            std::printf("%9lluK %10.2f %10.2f %12.2f\n",
                        static_cast<unsigned long long>(sz >> 10),
                        conv, bisc, pmbw);
        }
        ssd.unloadModule(mid);

        std::printf("\npaper shape: Conv caps at ~3.2 GB/s (PCIe); "
                    "Biscuit internal ~1 GB/s higher at >=256 KiB; "
                    "PM between the two; async saturates by "
                    "~500 KiB.\n");
    });
    return 0;
}
