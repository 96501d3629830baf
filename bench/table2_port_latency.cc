/**
 * @file
 * Reproduces paper Table II: measured latency for the three I/O port
 * types (host-to-device split into H2D and D2H). Also echoes the
 * simulated device's Table I specification.
 *
 * Measurement is a ping-pong so exactly one message is in flight;
 * reported values are steady-state one-way latencies.
 */

#include <cstdio>
#include <vector>

#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace {

using namespace bisc;

class PingLet
    : public slet::SSDLet<slet::In<std::uint64_t>,
                          slet::Out<std::uint64_t>,
                          slet::Arg<std::uint32_t>>
{
  public:
    void
    run() override
    {
        auto &k = context().runtime->kernel();
        std::uint64_t ack;
        for (std::uint32_t i = 0; i < arg<0>(); ++i) {
            out<0>().put(k.now());
            if (!in<0>().get(ack))
                break;
        }
    }
};

class PongLet
    : public slet::SSDLet<slet::In<std::uint64_t>,
                          slet::Out<std::uint64_t>, slet::Arg<>>
{
  public:
    static std::vector<Tick> deltas;

    void
    run() override
    {
        auto &k = context().runtime->kernel();
        std::uint64_t sent;
        while (in<0>().get(sent)) {
            deltas.push_back(k.now() - sent);
            out<0>().put(k.now());
        }
    }
};

std::vector<Tick> PongLet::deltas;

DeclareModule("bench_ports", 82'144);
RegisterSSDLet("bench_ports", "idPing", PingLet);
RegisterSSDLet("bench_ports", "idPong", PongLet);

double
steadyState(const std::vector<Tick> &deltas)
{
    // Skip warm-up rounds; average the back half.
    if (deltas.empty())
        return 0;
    std::size_t from = deltas.size() / 2;
    double sum = 0;
    for (std::size_t i = from; i < deltas.size(); ++i)
        sum += toMicros(deltas[i]);
    return sum / static_cast<double>(deltas.size() - from);
}

}  // namespace

int
main()
{
    constexpr std::uint32_t kRounds = 32;
    sisc::Env env;
    env.installModule("/bench_ports.slet", "bench_ports");
    std::printf("%s\n", env.device.config().describe().c_str());

    double inter_sslet = 0, inter_app = 0, d2h = 0, h2d = 0;

    env.run([&] {
        sisc::SSD ssd(env.runtime);
        auto mid =
            ssd.loadModule(sisc::File(ssd, "/bench_ports.slet"));

        {   // Inter-SSDlet (typed, same application).
            PongLet::deltas.clear();
            sisc::Application app(ssd);
            sisc::SSDLet ping(app, mid, "idPing",
                              std::make_tuple(kRounds));
            sisc::SSDLet pong(app, mid, "idPong");
            app.connect(ping.out(0), pong.in(0));
            app.connect(pong.out(0), ping.in(0));
            app.start();
            app.wait();
            inter_sslet = steadyState(PongLet::deltas);
        }
        {   // Inter-application (Packet, SPSC).
            PongLet::deltas.clear();
            sisc::Application a(ssd), b(ssd);
            sisc::SSDLet ping(a, mid, "idPing",
                              std::make_tuple(kRounds));
            sisc::SSDLet pong(b, mid, "idPong");
            a.connect(ping.out(0), pong.in(0));
            b.connect(pong.out(0), ping.in(0));
            a.start();
            b.start();
            a.wait();
            b.wait();
            inter_app = steadyState(PongLet::deltas);
        }
        {   // Host-to-device / device-to-host.
            PongLet::deltas.clear();
            std::vector<Tick> d2h_deltas;
            sisc::Application app(ssd);
            sisc::SSDLet pong(app, mid, "idPong");
            auto to_dev = app.connectFrom<std::uint64_t>(pong.in(0));
            auto from_dev = app.connectTo<std::uint64_t>(pong.out(0));
            app.start();
            for (std::uint32_t i = 0; i < kRounds; ++i) {
                to_dev.put(env.kernel.now());
                std::uint64_t dev_stamp = 0;
                from_dev.get(dev_stamp);
                d2h_deltas.push_back(env.kernel.now() - dev_stamp);
            }
            to_dev.close();
            app.wait();
            h2d = steadyState(PongLet::deltas);
            d2h = steadyState(d2h_deltas);
        }
        ssd.unloadModule(mid);
    });

    std::printf("Table II: measured latency for different I/O port "
                "types\n");
    std::printf("%-18s %-10s %-14s %-12s\n", "  Host-to-device", "",
                "Inter-SSDlet", "Inter-app.");
    std::printf("%-9s %-8s\n", "  H2D", "D2H");
    std::printf("  %-8.1f %-10.1f %-14.1f %-12.1f   (us)\n", h2d, d2h,
                inter_sslet, inter_app);
    std::printf("  paper:  301.6    130.1        31.0           "
                "10.7\n");
    return 0;
}
