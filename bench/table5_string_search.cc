/**
 * @file
 * Reproduces paper Table V: execution time for simple string search
 * over a large web-log compilation, Linux-grep-style Boyer-Moore on
 * the host versus the pattern-matcher-accelerated grep SSDlet, under
 * increasing StreamBench load.
 *
 * Paper numbers (seconds, 7.8 GiB corpus):
 *   #threads   0    6    12   18   24
 *   Conv     12.2 14.8 16.3 18.8 19.9
 *   Biscuit   2.3  2.3  2.3  2.3  2.4
 *
 * We scan a scaled corpus and report both the measured simulated
 * times and their linear extrapolation to the paper's 7.8 GiB.
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

    const Bytes corpus = 256_MiB;
    const double scale_to_paper =
        7.8 * 1024.0 / static_cast<double>(corpus >> 20);
    const std::string needle = "PaperDeadline";
    std::printf("generating %llu MiB web log...\n",
                static_cast<unsigned long long>(corpus >> 20));
    auto planted = host::generateWebLog(env.fs, "/data/weblog",
                                        corpus, needle, 4000, 7);
    std::printf("planted %llu needles\n\n",
                static_cast<unsigned long long>(planted));

    std::printf("Table V: execution time for string matching\n");
    std::printf("%-10s %12s %12s %9s %24s\n", "#threads", "Conv (s)",
                "Biscuit (s)", "speedup", "extrapolated to 7.8 GiB");

    env.run([&] {
        for (std::uint32_t threads : {0u, 6u, 12u, 18u, 24u}) {
            host::StreamBench load(host, threads);
            auto conv = host::grepConv(host, 0, "/data/weblog", needle);
            auto ndp =
                host::grepBiscuit(env.runtime, "/data/weblog", needle);
            std::printf("%-10u %12.3f %12.3f %8.1fx %12.1f / %.1f s\n",
                        threads, toSeconds(conv.elapsed),
                        toSeconds(ndp.elapsed),
                        static_cast<double>(conv.elapsed) /
                            static_cast<double>(ndp.elapsed),
                        toSeconds(conv.elapsed) * scale_to_paper,
                        toSeconds(ndp.elapsed) * scale_to_paper);
        }
        std::printf("\npaper: 5.3x unloaded growing to 8.3x at 24 "
                    "threads; Biscuit flat at ~2.3 s.\n");
    });
    return 0;
}
