/**
 * @file
 * Multi-core scheduling tests (paper §IV-B): applications — not
 * SSDlets — are the unit of multi-core scheduling. Two applications
 * land on different device cores and overlap; SSDlets of one
 * application share a core and serialize. Also: the networked
 * organization (Fig. 1(c)) via Ethernet-class transport parameters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hil/hil.h"
#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace bisc {
namespace {

/** Burns a fixed amount of device CPU, then reports its span. */
class BurnLet
    : public slet::SSDLet<
          slet::In<>, slet::Out<std::pair<std::uint64_t, std::uint64_t>>,
          slet::Arg<std::uint64_t>>
{
  public:
    void
    run() override
    {
        auto &k = context().runtime->kernel();
        Tick t0 = k.now();
        consumeCpu(arg<0>());
        out<0>().put({t0, k.now()});
    }
};

DeclareModule("multicore", 73'816);
RegisterSSDLet("multicore", "idBurn", BurnLet);

class MulticoreTest : public ::testing::Test
{
  protected:
    MulticoreTest() : env_(ssd::testConfig())
    {
        env_.installModule("/mc.slet", "multicore");
    }

    using Span = std::pair<std::uint64_t, std::uint64_t>;

    sisc::Env env_;
};

TEST_F(MulticoreTest, TwoAppsOverlapOnTwoCores)
{
    constexpr Tick kWork = 10 * kMsec;
    std::vector<Span> spans;
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/mc.slet"));
        sisc::Application a(ssd), b(ssd);
        sisc::SSDLet burn_a(a, mid, "idBurn",
                            std::make_tuple(std::uint64_t{kWork}));
        sisc::SSDLet burn_b(b, mid, "idBurn",
                            std::make_tuple(std::uint64_t{kWork}));
        auto pa = a.connectTo<Span>(burn_a.out(0));
        auto pb = b.connectTo<Span>(burn_b.out(0));
        a.start();
        b.start();
        Span s;
        while (pa.get(s))
            spans.push_back(s);
        while (pb.get(s))
            spans.push_back(s);
        a.wait();
        b.wait();
    });
    ASSERT_EQ(spans.size(), 2u);
    // Different cores: the two burns overlap in simulated time.
    Tick overlap_start = std::max(spans[0].first, spans[1].first);
    Tick overlap_end = std::min(spans[0].second, spans[1].second);
    EXPECT_GT(overlap_end, overlap_start)
        << "applications on different cores must run concurrently";
}

TEST_F(MulticoreTest, SsdletsOfOneAppShareACore)
{
    constexpr Tick kWork = 10 * kMsec;
    std::vector<Span> spans;
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/mc.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet b1(app, mid, "idBurn",
                        std::make_tuple(std::uint64_t{kWork}));
        sisc::SSDLet b2(app, mid, "idBurn",
                        std::make_tuple(std::uint64_t{kWork}));
        auto p1 = app.connectTo<Span>(b1.out(0));
        auto p2 = app.connectTo<Span>(b2.out(0));
        app.start();
        Span s;
        while (p1.get(s))
            spans.push_back(s);
        while (p2.get(s))
            spans.push_back(s);
        app.wait();
    });
    ASSERT_EQ(spans.size(), 2u);
    // Same core: compute serializes — the combined busy span is at
    // least twice the single burn.
    Tick lo = std::min(spans[0].first, spans[1].first);
    Tick hi = std::max(spans[0].second, spans[1].second);
    EXPECT_GE(hi - lo, 2 * kWork);
}

TEST_F(MulticoreTest, ConnectAfterStartIsRejected)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/mc.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet b1(app, mid, "idBurn",
                            std::make_tuple(std::uint64_t{100}));
            auto p = app.connectTo<Span>(b1.out(0));
            app.start();
            sisc::Application app2(ssd);
            sisc::SSDLet b2(app2, mid, "idBurn",
                            std::make_tuple(std::uint64_t{100}));
            app.connect(b1.out(0), b2.in(0));
        }),
        "");
}

TEST(NetworkedOrganization, EthernetTransportStretchesLatency)
{
    // Fig. 1(c): the same control hop over a networked transport is
    // much slower than over local PCIe.
    sim::Kernel k;
    hil::Hil local(k, hil::HilParams{});
    hil::Hil net(k, hil::networkedParams());
    Tick l = local.messageToHost(64, 0);
    Tick n = net.messageToHost(64, 0);
    EXPECT_GT(n, 3 * l);
    // Bandwidth drops below the SSD's internal bandwidth by far.
    EXPECT_LT(hil::networkedParams().pcie_bw, 1.3e9);
}

}  // namespace
}  // namespace bisc
