/**
 * @file
 * Cross-cutting coverage: Files travelling through ports (context
 * re-binding on arrival), runtime memory exhaustion, non-blocking
 * port reads, and module-file install errors.
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

/** Sends File handles downstream through a typed port. */
class FileSender
    : public slet::SSDLet<slet::In<>, slet::Out<slet::File>,
                          slet::Arg<std::vector<std::string>>>
{
  public:
    void
    run() override
    {
        for (const auto &path : arg<0>())
            out<0>().put(slet::File(path));
    }
};

/** Receives Files and reads their first byte (needs re-binding). */
class FileReceiver
    : public slet::SSDLet<slet::In<slet::File>,
                          slet::Out<std::string>, slet::Arg<>>
{
  public:
    void
    run() override
    {
        slet::File f;
        while (in<0>().get(f)) {
            // The port must have bound the File to this context.
            std::uint8_t b = 0;
            f.read(0, &b, 1);
            out<0>().put(f.path() + "=" +
                         std::to_string(static_cast<int>(b)));
        }
    }
};

/** Polls with tryGet, counting empty polls before data shows up. */
class Poller
    : public slet::SSDLet<slet::In<std::uint32_t>,
                          slet::Out<std::string>, slet::Arg<>>
{
  public:
    void
    run() override
    {
        int empty_polls = 0;
        while (true) {
            auto v = in<0>().tryGet();
            if (v) {
                out<0>().put("got=" + std::to_string(*v) +
                             ",polls=" +
                             std::to_string(empty_polls));
                return;
            }
            ++empty_polls;
            yield();
        }
    }
};

DeclareModule("misc_cov", 90'440);
RegisterSSDLet("misc_cov", "idFileSender", FileSender);
RegisterSSDLet("misc_cov", "idFileReceiver", FileReceiver);
RegisterSSDLet("misc_cov", "idPoller", Poller);

class MiscCoverageTest : public ::testing::Test
{
  protected:
    MiscCoverageTest() : env_(ssd::testConfig())
    {
        env_.installModule("/misc.slet", "misc_cov");
    }

    sisc::Env env_;
};

TEST_F(MiscCoverageTest, FilesRebindWhenPassedThroughPorts)
{
    std::uint8_t a = 11, b = 22;
    env_.fs.populate("/fa", &a, 1);
    env_.fs.populate("/fb", &b, 1);

    std::vector<std::string> got;
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/misc.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet sender(
            app, mid, "idFileSender",
            std::make_tuple(std::vector<std::string>{"/fa", "/fb"}));
        sisc::SSDLet receiver(app, mid, "idFileReceiver");
        app.connect(sender.out(0), receiver.in(0));
        auto port = app.connectTo<std::string>(receiver.out(0));
        app.start();
        std::string s;
        while (port.get(s))
            got.push_back(s);
        app.wait();
        ssd.unloadModule(mid);
    });
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "/fa=11");
    EXPECT_EQ(got[1], "/fb=22");
}

TEST_F(MiscCoverageTest, TryGetPollsWithoutBlocking)
{
    std::string result;
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/misc.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet poller(app, mid, "idPoller");
        auto to_dev = app.connectFrom<std::uint32_t>(poller.in(0));
        auto from_dev = app.connectTo<std::string>(poller.out(0));
        app.start();
        // Let the poller spin a while before feeding it.
        env_.kernel.sleep(2 * kMsec);
        to_dev.put(77);
        to_dev.close();
        std::string s;
        while (from_dev.get(s))
            result = s;
        app.wait();
        ssd.unloadModule(mid);
    });
    ASSERT_FALSE(result.empty());
    EXPECT_EQ(result.substr(0, 7), "got=77,");
    // It genuinely polled (the 2 ms idle window is many yields).
    int polls = std::stoi(result.substr(result.find("polls=") + 6));
    EXPECT_GT(polls, 10);
}

TEST_F(MiscCoverageTest, SystemMemoryExhaustionFailsModuleLoad)
{
    auto cfg = ssd::testConfig();
    cfg.system_mem_bytes = 16_KiB;  // smaller than any module image
    sisc::Env tiny(cfg);
    tiny.installModule("/misc.slet", "misc_cov");
    EXPECT_DEATH(
        tiny.run([&] {
            tiny.runtime.loadModule("/misc.slet");
        }),
        "out of system memory");
}

TEST_F(MiscCoverageTest, InstallUnknownModuleDies)
{
    EXPECT_DEATH(env_.installModule("/x.slet", "no_such_module"),
                 "unknown module");
}

TEST_F(MiscCoverageTest, KernelRunUntilLeavesFibersResumable)
{
    sim::Kernel k;
    int steps = 0;
    k.spawn("ticker", [&] {
        for (int i = 0; i < 10; ++i) {
            sim::Kernel::current().sleep(1 * kMsec);
            ++steps;
        }
    });
    k.runUntil(3 * kMsec + 1);
    EXPECT_EQ(steps, 3);
    EXPECT_EQ(k.liveFibers(), 1u);
    k.run();
    EXPECT_EQ(steps, 10);
    EXPECT_EQ(k.liveFibers(), 0u);
}

}  // namespace
}  // namespace bisc
