/**
 * @file
 * Reproduces paper Table III: latency of a single 4 KiB read — the
 * conventional path (Linux pread over NVMe) versus Biscuit's internal
 * read from an SSDlet. The gap is the host-interface round trip the
 * NDP path never pays, and it is the lever behind the pointer-chasing
 * result (Table IV).
 */

#include <cstdio>
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

/** Performs N isolated internal 4 KiB reads, reports mean latency. */
class ReadProbeLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<slet::File, std::uint32_t>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        std::uint32_t rounds = arg<1>();
        auto &k = context().runtime->kernel();
        std::vector<std::uint8_t> buf(4096);
        Tick total = 0;
        for (std::uint32_t i = 0; i < rounds; ++i) {
            // Space requests out so each read sees an idle device.
            k.sleep(500 * kUsec);
            Tick t0 = k.now();
            file.read((i % 512) * Bytes{4096}, buf.data(), 4096);
            total += k.now() - t0;
        }
        out<0>().put(total / rounds);
    }
};

DeclareModule("bench_read", 73'888);
RegisterSSDLet("bench_read", "idReadProbe", ReadProbeLet);

}  // namespace

int
main()
{
    constexpr std::uint32_t kRounds = 64;
    sisc::Env env(ssd::defaultConfig(), 1);
    host::HostSystem host(env.array);
    env.installModule("/bench_read.slet", "bench_read");

    // A few MiB of data to read from.
    std::vector<std::uint8_t> blob(4_MiB, 0x5a);
    env.fs.populate("/data/blob", blob.data(), blob.size());

    double conv_us = 0, bisc_us = 0;
    env.run([&] {
        // Conventional: isolated preads with idle gaps.
        Tick total = 0;
        std::vector<std::uint8_t> buf(4096);
        for (std::uint32_t i = 0; i < kRounds; ++i) {
            env.kernel.sleep(500 * kUsec);
            Tick t0 = env.kernel.now();
            host.pread(0, "/data/blob", (i % 512) * Bytes{4096},
                       buf.data(), 4096);
            total += env.kernel.now() - t0;
        }
        conv_us = toMicros(total / kRounds);

        // Biscuit: the same reads from inside the SSD.
        sisc::SSD ssd(env.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/bench_read.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet probe(
            app, mid, "idReadProbe",
            std::make_tuple(slet::File("/data/blob"), kRounds));
        auto port = app.connectTo<std::uint64_t>(probe.out(0));
        app.start();
        std::uint64_t mean = 0;
        while (port.get(mean))
            bisc_us = toMicros(mean);
        app.wait();
        ssd.unloadModule(mid);
    });

    std::printf("Table III: measured 4 KiB data read latency\n");
    std::printf("  %-10s %-10s\n", "Conv", "Biscuit");
    std::printf("  %-10.1f %-10.1f (us)\n", conv_us, bisc_us);
    std::printf("  paper: 90.0 vs 75.9 us (14.1 us gap)\n");
    std::printf("  measured gap: %.1f us (%.0f%% shorter inside the "
                "SSD)\n",
                conv_us - bisc_us, 100.0 * (conv_us - bisc_us) / conv_us);
    return 0;
}
