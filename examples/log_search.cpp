/**
 * @file
 * Example: hardware-accelerated string search (paper §V-C, Table V).
 *
 * Generates a synthetic web log on the SSD and searches it two ways:
 * Linux-grep-style Boyer-Moore on the host (Conv) versus a grep
 * SSDlet leaning on the per-channel pattern matcher (Biscuit) — then
 * repeats under increasing StreamBench background load to show that
 * the in-storage search is immune to host memory contention.
 */

#include <cstdio>

#include "host/grep.h"
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

    const Bytes corpus = 64_MiB;
    const std::string needle = "ERROR_5xx_spike";
    std::printf("generating %llu MiB web log on the SSD...\n",
                static_cast<unsigned long long>(corpus >> 20));
    // One needle per ~5000 lines: like real error-hunting, almost
    // every page is filtered out by the matcher IP and never touches
    // a CPU.
    auto planted = host::generateWebLog(env.fs, "/data/weblog",
                                        corpus, needle, 5000, 42);
    std::printf("planted %llu occurrences of \"%s\"\n\n",
                static_cast<unsigned long long>(planted),
                needle.c_str());

    env.run([&] {
        std::printf("%-8s %14s %14s %9s\n", "#load", "Conv (ms)",
                    "Biscuit (ms)", "speedup");
        for (std::uint32_t threads : {0u, 6u, 12u, 18u, 24u}) {
            host::StreamBench load(host, threads);
            auto conv = host::grepConv(host, 0, "/data/weblog", needle);
            auto ndp =
                host::grepBiscuit(env.runtime, "/data/weblog", needle);
            std::printf("%-8u %14.1f %14.1f %8.1fx   "
                        "(matches: conv %llu, ndp %llu)\n",
                        threads, toMicros(conv.elapsed) / 1000.0,
                        toMicros(ndp.elapsed) / 1000.0,
                        static_cast<double>(conv.elapsed) /
                            static_cast<double>(ndp.elapsed),
                        static_cast<unsigned long long>(conv.matches),
                        static_cast<unsigned long long>(ndp.matches));
        }
        std::printf("\nConv slows with load; the in-SSD search does "
                    "not (cf. paper Table V).\n");
    });
    return 0;
}
