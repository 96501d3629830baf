/**
 * @file
 * Google-benchmark microbenchmarks of the framework's hot primitives
 * (real wall-clock time, unlike the simulated-time table/figure
 * benches): event queue churn, fiber switches, bounded queues, packet
 * serialization, the substring search kernel, the pattern matcher and
 * the runtime allocator.
 */

#include <benchmark/benchmark.h>

#include "util/log.h"

#include <string>
#include <vector>

#include "fiber/fiber.h"
#include "pm/pattern_matcher.h"
#include "runtime/allocator.h"
#include "sim/event_queue.h"
#include "sim/kernel.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "util/bounded_queue.h"
#include "util/packet.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace {

using namespace bisc;

// Benchmark fixtures intentionally abandon fibers between
// iterations; silence the teardown warnings.
[[maybe_unused]] const bool g_quiet = [] {
    setLogLevel(LogLevel::Quiet);
    return true;
}();

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int acc = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Tick>(i % 97), [&acc] { ++acc; });
        while (q.runOne()) {
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_FiberSwitch(benchmark::State &state)
{
    fiber::Fiber f("bench", [] {
        while (true)
            fiber::Fiber::suspendCurrent();
    });
    for (auto _ : state)
        f.resume();
    state.SetItemsProcessed(state.iterations() * 2);  // 2 switches
}
BENCHMARK(BM_FiberSwitch);

void
BM_KernelSleepWake(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Kernel k;
        k.spawn("sleeper", [] {
            for (int i = 0; i < 100; ++i)
                sim::Kernel::current().sleep(10);
        });
        k.run();
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KernelSleepWake);

void
BM_BoundedQueuePushPop(benchmark::State &state)
{
    BoundedQueue<std::uint64_t> q(256);
    std::uint64_t v = 0;
    for (auto _ : state) {
        q.tryPush(v++);
        benchmark::DoNotOptimize(q.tryPop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundedQueuePushPop);

void
BM_PacketSerializePairVector(benchmark::State &state)
{
    std::vector<std::pair<std::string, std::uint32_t>> kv;
    for (int i = 0; i < 64; ++i)
        kv.emplace_back("word" + std::to_string(i), i);
    for (auto _ : state) {
        Packet p = serialize(kv);
        auto out = deserialize<
            std::vector<std::pair<std::string, std::uint32_t>>>(p);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PacketSerializePairVector);

void
BM_SearchKernelScan(benchmark::State &state)
{
    Rng rng(seedFromEnv(5));
    std::vector<std::uint8_t> hay(1 << 20);
    for (auto &b : hay)
        b = static_cast<std::uint8_t>('a' + rng.below(26));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pm::count(hay.data(), hay.size(), "needlepattern"));
    state.SetBytesProcessed(state.iterations() * hay.size());
}
BENCHMARK(BM_SearchKernelScan);

void
BM_PatternMatcherScan(benchmark::State &state)
{
    Rng rng(seedFromEnv(6));
    std::vector<std::uint8_t> page(16 << 10);
    for (auto &b : page)
        b = static_cast<std::uint8_t>('a' + rng.below(26));
    pm::KeySet keys;
    keys.addKey("1995-09");
    keys.addKey("PROMO");
    keys.addKey("BUILDING");
    pm::PatternMatcher ip;
    ip.configure(keys);
    for (auto _ : state)
        benchmark::DoNotOptimize(ip.scan(page.data(), page.size()));
    state.SetBytesProcessed(state.iterations() * page.size());
}
BENCHMARK(BM_PatternMatcherScan);

void
BM_AllocatorChurn(benchmark::State &state)
{
    rt::Allocator alloc("bench", 16_MiB);
    Rng rng(seedFromEnv(7));
    std::vector<rt::MemAddr> live;
    for (auto _ : state) {
        if (live.size() < 64 || rng.chance(0.55)) {
            auto a = alloc.allocate(64 + rng.below(4096));
            if (a)
                live.push_back(*a);
        } else {
            std::size_t i = rng.below(live.size());
            alloc.free(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
    }
    for (auto a : live)
        alloc.free(a);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatorChurn);

constexpr Bytes kImageFileBytes = 2_MiB;

/** A small populated system for the snapshot/fork benchmarks. */
sisc::Env *
populatedEnv()
{
    auto *env = new sisc::Env();
    std::vector<std::uint8_t> data(kImageFileBytes);
    for (Bytes i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 131);
    env->fs.populate("/bench/data", data.data(), data.size());
    return env;
}

void
BM_DeviceImageFreeze(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        sisc::Env *env = populatedEnv();
        state.ResumeTiming();
        auto image = sisc::freezeDeviceImage(*env);
        benchmark::DoNotOptimize(image.nand->pages.size());
        state.PauseTiming();
        delete env;
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() * kImageFileBytes);
}
BENCHMARK(BM_DeviceImageFreeze);

void
BM_DeviceImageFork(benchmark::State &state)
{
    sisc::Env *frozen = populatedEnv();
    const sim::DeviceImage image = sisc::freezeDeviceImage(*frozen);

    std::size_t shared = 0;
    std::size_t copied = 0;
    for (auto _ : state) {
        // Fork a lane and run a read-only query over the whole file:
        // every page must be served from the shared image, none
        // copied into the lane's overlay.
        sisc::Env lane(image);
        std::vector<std::uint8_t> buf(lane.fs.pageSize());
        lane.run([&] {
            for (Bytes off = 0; off < kImageFileBytes;
                 off += buf.size())
                lane.fs.read("/bench/data", off, buf.size(),
                             buf.data());
        });
        shared = lane.device.nand().basePages();
        copied = lane.device.nand().overlayPages();
        BISC_ASSERT(copied == 0,
                    "read-only fork copied ", copied, " pages");
        benchmark::DoNotOptimize(buf.data());
    }
    state.counters["pages_shared"] =
        static_cast<double>(shared);
    state.counters["pages_copied"] =
        static_cast<double>(copied);
    state.SetItemsProcessed(state.iterations());
    delete frozen;
}
BENCHMARK(BM_DeviceImageFork);

}  // namespace

BENCHMARK_MAIN();
