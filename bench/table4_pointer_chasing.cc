/**
 * @file
 * Reproduces paper Table IV: execution time of the pointer-chasing
 * benchmark under increasing background load (StreamBench threads).
 *
 * Paper numbers (seconds):
 *   #threads    0     6     12    18    24
 *   Conv      138.6  ...   ...  154.9 155.0
 *   Biscuit   124.4  ...   ...  123.9 123.5
 *
 * The gain tracks the read-latency gap (Table III): traversal time is
 * essentially the sum of data-dependent read latencies.
 */

#include <cstdio>

#include "graph/graph.h"
#include "host/host_system.h"
#include "host/load_gen.h"
#include "sisc/env.h"
#include "util/common.h"

int
main()
{
    using namespace bisc;

    sisc::Env env(ssd::defaultConfig(), 1);
    host::HostSystem host(env.array);

    graph::GraphSpec gspec;
    gspec.vertices = 400000;  // ~100 MiB store (paper: 20 GiB)
    gspec.avg_degree = 12;
    std::printf("building the graph store (%llu vertices)...\n",
                static_cast<unsigned long long>(gspec.vertices));
    auto store = graph::GraphStore::build(env.fs, "/data/twitter",
                                          gspec);

    // Paper scale is 100 walks x ~14400 hops (Conv ~138.6 s); we run
    // a tenth of the hops and report both the measured simulated
    // times and their x10 extrapolation (traversal time is strictly
    // linear in hop count: it is a sum of per-hop read latencies).
    graph::ChaseSpec cspec;
    cspec.walks = 100;
    cspec.hops = 1440;
    const double scale = 10.0;

    std::printf("Table IV: execution time for pointer chasing "
                "(%llu walks x %u hops, x%.0f extrapolated)\n\n",
                static_cast<unsigned long long>(cspec.walks),
                cspec.hops, scale);
    std::printf("%-10s %12s %12s %8s %24s\n", "#threads", "Conv (s)",
                "Biscuit (s)", "gain", "extrapolated (paper scale)");

    env.run([&] {
        for (std::uint32_t threads : {0u, 6u, 12u, 18u, 24u}) {
            host::StreamBench load(host, threads);
            auto conv = graph::chaseConv(host, store, cspec);
            auto ndp = graph::chaseBiscuit(env.runtime, store, cspec);
            BISC_ASSERT(conv.visited_sum == ndp.visited_sum,
                        "traversals diverged");
            std::printf("%-10u %12.2f %12.2f %7.1f%% %12.1f / %.1f s\n",
                        threads, toSeconds(conv.elapsed),
                        toSeconds(ndp.elapsed),
                        100.0 * (static_cast<double>(conv.elapsed) /
                                     static_cast<double>(ndp.elapsed) -
                                 1.0),
                        toSeconds(conv.elapsed) * scale,
                        toSeconds(ndp.elapsed) * scale);
        }
        std::printf("\npaper: Conv 138.6 -> 155.0 s with load; "
                    "Biscuit ~124 s flat (>=11%% gain).\n");
    });
    return 0;
}
