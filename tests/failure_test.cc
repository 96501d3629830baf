/**
 * @file
 * Failure injection and stress: misbehaving SSDlets, abandoned
 * applications, resource churn (load/unload cycles must not leak
 * device memory), and allocator exhaustion under instance storms —
 * the "ill-behaving user code must not adversely affect the overall
 * operation" concern of paper §II-B, within what a software runtime
 * can enforce.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace bisc {
namespace {

/** User code that throws: the runtime converts it into a panic with
 *  the fiber's identity, rather than corrupting scheduler state. */
class ThrowingLet
    : public slet::SSDLet<slet::In<>, slet::Out<>, slet::Arg<>>
{
  public:
    void
    run() override
    {
        throw std::runtime_error("user bug inside an SSDlet");
    }
};

/** Reads a file the host never granted (missing path). */
class BadFileLet
    : public slet::SSDLet<slet::In<>, slet::Out<>,
                          slet::Arg<slet::File>>
{
  public:
    void
    run() override
    {
        std::uint8_t b;
        arg<0>().read(0, &b, 1);
    }
};

/** Trivial worker used for churn tests. */
class ChurnLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint32_t>,
                          slet::Arg<std::uint32_t>>
{
  public:
    void run() override { out<0>().put(arg<0>()); }
};

DeclareModule("failures", 90'368);
RegisterSSDLet("failures", "idThrowing", ThrowingLet);
RegisterSSDLet("failures", "idBadFile", BadFileLet);
RegisterSSDLet("failures", "idChurn", ChurnLet);

class FailureTest : public ::testing::Test
{
  protected:
    FailureTest() : env_(ssd::testConfig())
    {
        env_.installModule("/fail.slet", "failures");
    }

    sisc::Env env_;
};

TEST_F(FailureTest, ThrowingSsdletPanicsWithItsIdentity)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/fail.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet bad(app, mid, "idThrowing");
            app.start();
            app.wait();
        }),
        "uncaught exception in fiber 'slet:idThrowing.*user bug");
}

TEST_F(FailureTest, MissingFileAccessIsCaught)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/fail.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet bad(
                app, mid, "idBadFile",
                std::make_tuple(slet::File("/no/such/file")));
            app.start();
            app.wait();
        }),
        "no such file");
}

TEST_F(FailureTest, AbandonedRunningAppWarnsNotCrashes)
{
    // Destroying an Application while its SSDlets still run is a
    // user error: the framework warns and leaks (until reset), but
    // must not crash or corrupt the runtime.
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/fail.slet"));
        {
            sisc::Application app(ssd);
            sisc::SSDLet w(app, mid, "idChurn",
                           std::make_tuple(std::uint32_t{1}));
            auto port = app.connectTo<std::uint32_t>(w.out(0));
            app.start();
            // Leave scope without draining/waiting.
        }
        // The runtime is still operable for new work.
        sisc::Application app2(ssd);
        sisc::SSDLet w2(app2, mid, "idChurn",
                        std::make_tuple(std::uint32_t{2}));
        auto port2 = app2.connectTo<std::uint32_t>(w2.out(0));
        app2.start();
        std::uint32_t v = 0;
        while (port2.get(v)) {
        }
        EXPECT_EQ(v, 2u);
        app2.wait();
    });
}

TEST_F(FailureTest, LoadUnloadChurnDoesNotLeakDeviceMemory)
{
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        Bytes sys0 = env_.runtime.systemAllocator().used();
        Bytes usr0 = env_.runtime.userAllocator().used();
        for (int round = 0; round < 25; ++round) {
            auto mid = ssd.loadModule(sisc::File(ssd, "/fail.slet"));
            sisc::Application app(ssd);
            std::vector<sisc::SSDLet> lets;
            std::vector<sisc::InputPort<std::uint32_t>> ports;
            for (std::uint32_t i = 0; i < 4; ++i) {
                lets.emplace_back(app, mid, "idChurn",
                                  std::make_tuple(i));
                ports.push_back(
                    app.connectTo<std::uint32_t>(lets[i].out(0)));
            }
            app.start();
            std::uint32_t v;
            for (auto &p : ports) {
                while (p.get(v)) {
                }
            }
            app.wait();
            ssd.unloadModule(mid);
        }
        EXPECT_EQ(env_.runtime.systemAllocator().used(), sys0);
        EXPECT_EQ(env_.runtime.userAllocator().used(), usr0);
        EXPECT_EQ(env_.runtime.loadedModules(), 0u);
        EXPECT_EQ(env_.runtime.liveInstances(), 0u);
    });
}

TEST_F(FailureTest, InstanceStormExhaustsUserMemoryFatally)
{
    auto cfg = ssd::testConfig();
    cfg.user_mem_bytes = 1_MiB;  // room for only a few instances
    sisc::Env tiny(cfg);
    tiny.installModule("/fail.slet", "failures");
    EXPECT_DEATH(
        tiny.run([&] {
            sisc::SSD ssd(tiny.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/fail.slet"));
            sisc::Application app(ssd);
            std::vector<sisc::SSDLet> storm;
            for (std::uint32_t i = 0; i < 64; ++i)
                storm.emplace_back(app, mid, "idChurn",
                                   std::make_tuple(i));
        }),
        "out of user memory");
}

TEST_F(FailureTest, ManyConcurrentAppsStress)
{
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/fail.slet"));
        std::vector<std::unique_ptr<sisc::Application>> apps;
        std::vector<sisc::SSDLet> lets;
        std::vector<sisc::InputPort<std::uint32_t>> ports;
        for (std::uint32_t i = 0; i < 12; ++i) {
            apps.push_back(
                std::make_unique<sisc::Application>(ssd));
            lets.emplace_back(*apps.back(), mid, "idChurn",
                              std::make_tuple(i));
            ports.push_back(apps.back()->connectTo<std::uint32_t>(
                lets.back().out(0)));
        }
        for (auto &a : apps)
            a->start();
        std::uint64_t sum = 0;
        std::uint32_t v;
        for (auto &p : ports) {
            while (p.get(v))
                sum += v;
        }
        for (auto &a : apps)
            a->wait();
        EXPECT_EQ(sum, 66u);  // 0+1+...+11
        ssd.unloadModule(mid);
    });
}

}  // namespace
}  // namespace bisc
