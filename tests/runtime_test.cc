/**
 * @file
 * Unit tests for the device runtime: memory allocators, the module
 * registry and the module/application lifecycle.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/allocator.h"
#include "runtime/module.h"
#include "runtime/runtime.h"
#include "sisc/env.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace bisc {
namespace {

// ----- Allocator -----

TEST(Allocator, AllocateFreeRoundTrip)
{
    rt::Allocator a("test", 1_MiB);
    auto p = a.allocate(1000);
    ASSERT_TRUE(p.has_value());
    EXPECT_GT(a.used(), 0u);
    EXPECT_EQ(a.liveBlocks(), 1u);
    a.free(*p);
    EXPECT_EQ(a.used(), 0u);
    EXPECT_EQ(a.liveBlocks(), 0u);
}

TEST(Allocator, AlignmentIsSixteen)
{
    rt::Allocator a("test", 1_MiB);
    for (int i = 0; i < 8; ++i) {
        auto p = a.allocate(3);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(*p % rt::Allocator::kAlignment, 0u);
    }
}

TEST(Allocator, ExhaustionReturnsNullopt)
{
    rt::Allocator a("test", 1024);
    auto p = a.allocate(1024);
    ASSERT_TRUE(p.has_value());
    EXPECT_FALSE(a.allocate(16).has_value());
    a.free(*p);
    EXPECT_TRUE(a.allocate(16).has_value());
}

TEST(Allocator, CoalescingRebuildsLargeBlocks)
{
    rt::Allocator a("test", 4096);
    auto p1 = a.allocate(1024);
    auto p2 = a.allocate(1024);
    auto p3 = a.allocate(1024);
    auto p4 = a.allocate(1024);
    ASSERT_TRUE(p4.has_value());
    // Free in an order that exercises both-neighbour coalescing.
    a.free(*p2);
    a.free(*p4);
    a.free(*p3);  // merges with both p2's and p4's blocks
    a.free(*p1);
    EXPECT_EQ(a.largestFree(), 4096u);
    EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);
    auto big = a.allocate(4096);
    EXPECT_TRUE(big.has_value());
}

TEST(Allocator, FragmentationIsMeasured)
{
    rt::Allocator a("test", 4096);
    auto p1 = a.allocate(1024);
    auto p2 = a.allocate(1024);
    auto p3 = a.allocate(1024);
    (void)p3;
    a.free(*p1);  // two discontiguous free KiBs (p1's and the tail)
    (void)p2;
    EXPECT_GT(a.fragmentation(), 0.0);
    // A 2 KiB request cannot be satisfied despite 2 KiB total free.
    EXPECT_FALSE(a.allocate(2048).has_value());
}

TEST(Allocator, PeakTracksHighWater)
{
    rt::Allocator a("test", 1_MiB);
    auto p1 = a.allocate(1000);
    auto p2 = a.allocate(2000);
    Bytes peak = a.peak();
    a.free(*p1);
    a.free(*p2);
    EXPECT_EQ(a.peak(), peak);
    EXPECT_GE(peak, 3000u);
}

TEST(Allocator, OwnsIdentifiesLiveBlocks)
{
    rt::Allocator a("test", 1_MiB);
    auto p = a.allocate(64);
    EXPECT_TRUE(a.owns(*p));
    EXPECT_TRUE(a.owns(*p + 63));
    EXPECT_FALSE(a.owns(*p + 64));
    a.free(*p);
    EXPECT_FALSE(a.owns(*p));
}

TEST(Allocator, DoubleFreePanics)
{
    rt::Allocator a("test", 1_MiB);
    auto p = a.allocate(64);
    a.free(*p);
    EXPECT_DEATH(a.free(*p), "bad free");
}

TEST(Allocator, FirstFitReusesFreedHoles)
{
    rt::Allocator a("test", 4096);
    auto p1 = a.allocate(512);
    auto p2 = a.allocate(512);
    (void)p2;
    a.free(*p1);
    auto p3 = a.allocate(256);
    ASSERT_TRUE(p3.has_value());
    EXPECT_EQ(*p3, *p1);  // reuses the first hole
}

// ----- Module registry + a trivial SSDlet -----

class NopLet : public slet::SSDLet<slet::In<>, slet::Out<>,
                                   slet::Arg<>>
{
  public:
    void run() override {}
};

DeclareModule("rt_test_mod", 73'776);
RegisterSSDLet("rt_test_mod", "idNop", NopLet);

TEST(ModuleRegistry, FindRegisteredModule)
{
    const auto *img = rt::ModuleRegistry::global().find("rt_test_mod");
    ASSERT_NE(img, nullptr);
    EXPECT_EQ(img->factories.count("idNop"), 1u);
    EXPECT_EQ(img->image_bytes, 73'776u);
}

// The device modules src/ ships, as declared: one MiniDB image holding
// every DB SSDlet, the resident grep image and the pointer-chase
// image. Their sizes set the timed loads the goldens pin.
TEST(ModuleRegistry, SourceModulesAreDeclared)
{
    const auto &reg = rt::ModuleRegistry::global();
    auto ids = [](const rt::ModuleImage &img) {
        std::vector<std::string> out;
        for (const auto &[id, factory] : img.factories)
            out.push_back(id);
        return out;
    };
    const auto *minidb = reg.find("minidb");
    ASSERT_NE(minidb, nullptr);
    EXPECT_EQ(minidb->image_bytes, 82'320u);
    EXPECT_EQ(ids(*minidb),
              (std::vector<std::string>{"idRecheck", "idSample",
                                        "idScanFilter", "idSemiScan",
                                        "idWordCount"}));
    const auto *grep = reg.find("grep");
    ASSERT_NE(grep, nullptr);
    EXPECT_EQ(grep->image_bytes, 73'912u);
    EXPECT_EQ(ids(*grep), std::vector<std::string>{"idGrep"});
    const auto *pchase = reg.find("pchase");
    ASSERT_NE(pchase, nullptr);
    EXPECT_EQ(pchase->image_bytes, 73'920u);
    for (const char *gone : {"minidb_prune", "minidb_pipe", "hetero"})
        EXPECT_EQ(reg.find(gone), nullptr) << gone;
}

TEST(ModuleRegistry, UnknownModuleIsNull)
{
    EXPECT_EQ(rt::ModuleRegistry::global().find("no_such_module"),
              nullptr);
}

TEST(ModuleRegistry, HeaderRoundTrip)
{
    std::string header = std::string(rt::kSletMagic) + "mymod\n";
    auto name = rt::ModuleRegistry::parseHeader(
        reinterpret_cast<const std::uint8_t *>(header.data()),
        header.size());
    EXPECT_EQ(name, "mymod");

    std::string bogus = "ELF...";
    EXPECT_EQ(rt::ModuleRegistry::parseHeader(
                  reinterpret_cast<const std::uint8_t *>(bogus.data()),
                  bogus.size()),
              "");
}

// ----- Runtime lifecycle -----

class RuntimeTest : public ::testing::Test
{
  protected:
    RuntimeTest() : env_(ssd::testConfig())
    {
        env_.installModule("/var/isc/slets/rt_test_mod.slet",
                           "rt_test_mod");
    }

    sisc::Env env_;
};

TEST_F(RuntimeTest, LoadModuleChargesTimeAndMemory)
{
    Bytes sys_before = env_.runtime.systemAllocator().used();
    Tick finished = env_.run([this] {
        Tick t0 = env_.kernel.now();
        rt::ModuleId mid = env_.runtime.loadModule(
            "/var/isc/slets/rt_test_mod.slet");
        EXPECT_GT(env_.kernel.now(), t0);  // flash read + relocation
        EXPECT_GT(env_.runtime.systemAllocator().used(), 0u);
        env_.runtime.unloadModule(mid);
    });
    EXPECT_GT(finished, 0u);
    EXPECT_EQ(env_.runtime.systemAllocator().used(), sys_before);
    EXPECT_EQ(env_.runtime.loadedModules(), 0u);
}

TEST_F(RuntimeTest, InstanceLifecycleTracksUserMemory)
{
    env_.run([this] {
        auto mid = env_.runtime.loadModule(
            "/var/isc/slets/rt_test_mod.slet");
        auto app = env_.runtime.createApp();
        Bytes before = env_.runtime.userAllocator().used();
        env_.runtime.createInstance(app, mid, "idNop", Packet{});
        env_.runtime.createInstance(app, mid, "idNop", Packet{});
        EXPECT_GT(env_.runtime.userAllocator().used(), before);
        EXPECT_EQ(env_.runtime.liveInstances(), 2u);

        env_.runtime.startApp(app);
        env_.runtime.waitApp(app);
        EXPECT_TRUE(env_.runtime.appFinished(app));

        env_.runtime.destroyApp(app);
        EXPECT_EQ(env_.runtime.userAllocator().used(), before);
        EXPECT_EQ(env_.runtime.liveInstances(), 0u);
        env_.runtime.unloadModule(mid);
    });
}

TEST_F(RuntimeTest, UnloadWithLiveInstancesPanics)
{
    EXPECT_DEATH(
        env_.run([this] {
            auto mid = env_.runtime.loadModule(
                "/var/isc/slets/rt_test_mod.slet");
            auto app = env_.runtime.createApp();
            env_.runtime.createInstance(app, mid, "idNop", Packet{});
            env_.runtime.unloadModule(mid);
        }),
        "instances alive");
}

TEST_F(RuntimeTest, UnknownSsdletIdIsFatal)
{
    EXPECT_DEATH(
        env_.run([this] {
            auto mid = env_.runtime.loadModule(
                "/var/isc/slets/rt_test_mod.slet");
            auto app = env_.runtime.createApp();
            env_.runtime.createInstance(app, mid, "idBogus",
                                        Packet{});
        }),
        "no SSDlet");
}

TEST_F(RuntimeTest, AppsRoundRobinAcrossCores)
{
    env_.run([this] {
        auto a1 = env_.runtime.createApp();
        auto a2 = env_.runtime.createApp();
        auto a3 = env_.runtime.createApp();
        // Two device cores: apps 1 and 3 share core0, app 2 on core1.
        EXPECT_EQ(&env_.runtime.coreOf(a1), &env_.runtime.coreOf(a3));
        EXPECT_NE(&env_.runtime.coreOf(a1), &env_.runtime.coreOf(a2));
    });
}

TEST_F(RuntimeTest, CorruptSletFileIsFatal)
{
    const char junk[] = "not a module";
    env_.fs.populate("/bad.slet", junk, sizeof(junk));
    EXPECT_DEATH(
        env_.run([this] { env_.runtime.loadModule("/bad.slet"); }),
        "corrupt");
}

TEST_F(RuntimeTest, MultipleInstancesFromOneImage)
{
    env_.run([this] {
        auto mid = env_.runtime.loadModule(
            "/var/isc/slets/rt_test_mod.slet");
        auto app = env_.runtime.createApp();
        std::vector<rt::InstanceId> ids;
        for (int i = 0; i < 5; ++i)
            ids.push_back(env_.runtime.createInstance(app, mid,
                                                      "idNop",
                                                      Packet{}));
        // Separate address spaces: user memory grows per instance.
        EXPECT_EQ(env_.runtime.liveInstances(), 5u);
        env_.runtime.startApp(app);
        env_.runtime.waitApp(app);
        env_.runtime.destroyApp(app);
        env_.runtime.unloadModule(mid);
    });
}

}  // namespace
}  // namespace bisc
