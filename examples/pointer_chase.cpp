/**
 * @file
 * Example: pointer chasing over an on-SSD graph (paper §V-C,
 * Table IV). Random walks whose every hop is a data-dependent 4 KiB
 * read — run by the host over NVMe versus by a chaser SSDlet with
 * internal reads. The ~14 us/read latency gap (Table III) compounds
 * over hundreds of thousands of hops.
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
    gspec.vertices = 200000;  // ~51 MiB store
    gspec.avg_degree = 12;
    std::printf("building a %llu-vertex social-graph store on the "
                "SSD...\n",
                static_cast<unsigned long long>(gspec.vertices));
    auto store = graph::GraphStore::build(env.fs, "/data/graph",
                                          gspec);

    graph::ChaseSpec cspec;
    cspec.walks = 20;
    cspec.hops = 2000;

    env.run([&] {
        std::printf("\nrandom walks: %llu x %u hops\n\n",
                    static_cast<unsigned long long>(cspec.walks),
                    cspec.hops);
        std::printf("%-8s %12s %14s %8s\n", "#load", "Conv (s)",
                    "Biscuit (s)", "gain");
        for (std::uint32_t threads : {0u, 12u, 24u}) {
            host::StreamBench load(host, threads);
            auto conv = graph::chaseConv(host, store, cspec);
            auto ndp = graph::chaseBiscuit(env.runtime, store, cspec);
            if (conv.visited_sum != ndp.visited_sum)
                std::printf("!! traversals diverged\n");
            std::printf("%-8u %12.3f %14.3f %7.1f%%\n", threads,
                        toSeconds(conv.elapsed),
                        toSeconds(ndp.elapsed),
                        100.0 * (static_cast<double>(conv.elapsed) /
                                     static_cast<double>(ndp.elapsed) -
                                 1.0));
        }
        std::printf("\nBoth traversals visit identical vertices; only "
                    "where the hop executes differs.\n");
    });
    return 0;
}
