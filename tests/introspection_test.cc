/**
 * @file
 * Runtime introspection and a parameterized port-capacity sweep:
 * ordering and backpressure must hold for every queue capacity.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace bisc {
namespace {

class SeqProducer
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint32_t>,
                          slet::Arg<std::uint32_t>>
{
  public:
    void
    run() override
    {
        for (std::uint32_t i = 0; i < arg<0>(); ++i)
            out<0>().put(i);
    }
};

class SeqRelay
    : public slet::SSDLet<slet::In<std::uint32_t>,
                          slet::Out<std::uint32_t>, slet::Arg<>>
{
  public:
    void
    run() override
    {
        std::uint32_t v;
        while (in<0>().get(v))
            out<0>().put(v);
    }
};

DeclareModule("introspect", 82'120);
RegisterSSDLet("introspect", "idSeqProducer", SeqProducer);
RegisterSSDLet("introspect", "idSeqRelay", SeqRelay);

TEST(RuntimeIntrospection, DescribeReflectsState)
{
    sisc::Env env(ssd::testConfig());
    env.installModule("/in.slet", "introspect");
    env.run([&] {
        sisc::SSD ssd(env.runtime);
        std::string before = env.runtime.describe();
        EXPECT_NE(before.find("modules (0)"), std::string::npos);

        auto mid = ssd.loadModule(sisc::File(ssd, "/in.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet p(app, mid, "idSeqProducer",
                       std::make_tuple(std::uint32_t{4}));
        sisc::SSDLet r(app, mid, "idSeqRelay");
        app.connect(p.out(0), r.in(0));
        auto port = app.connectTo<std::uint32_t>(r.out(0));

        std::string mid_run = env.runtime.describe();
        EXPECT_NE(mid_run.find("'introspect'"), std::string::npos);
        EXPECT_NE(mid_run.find("2 live instance"), std::string::npos);
        EXPECT_NE(mid_run.find("idSeqProducer#"), std::string::npos);
        EXPECT_NE(mid_run.find("created"), std::string::npos);

        app.start();
        std::uint32_t v;
        while (port.get(v)) {
        }
        app.wait();
        EXPECT_NE(env.runtime.describe().find("finished"),
                  std::string::npos);
        ssd.unloadModule(mid);
    });
}

/** Chain order/backpressure must hold at any queue capacity. */
class PortCapacitySweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(PortCapacitySweep, ChainPreservesOrderAtAnyCapacity)
{
    auto cfg = ssd::testConfig();
    cfg.port_queue_capacity = GetParam();
    sisc::Env env(cfg);
    env.installModule("/in.slet", "introspect");

    constexpr std::uint32_t kCount = 50;
    std::vector<std::uint32_t> got;
    env.run([&] {
        sisc::SSD ssd(env.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/in.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet p(app, mid, "idSeqProducer",
                       std::make_tuple(kCount));
        sisc::SSDLet r1(app, mid, "idSeqRelay");
        sisc::SSDLet r2(app, mid, "idSeqRelay");
        app.connect(p.out(0), r1.in(0));
        app.connect(r1.out(0), r2.in(0));
        auto port = app.connectTo<std::uint32_t>(r2.out(0));
        app.start();
        std::uint32_t v;
        while (port.get(v))
            got.push_back(v);
        app.wait();
        ssd.unloadModule(mid);
    });
    ASSERT_EQ(got.size(), kCount);
    for (std::uint32_t i = 0; i < kCount; ++i)
        EXPECT_EQ(got[i], i);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PortCapacitySweep,
                         ::testing::Values(1, 2, 3, 7, 64, 256));

}  // namespace
}  // namespace bisc
