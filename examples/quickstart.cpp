/**
 * @file
 * Quickstart: the paper's wordcount application (Fig. 5, Codes 1-3).
 *
 * A Mapper SSDlet tokenizes a file stored on the SSD, a Shuffler
 * routes words by hash, and two Reducer SSDlets count frequencies —
 * all running *inside* the SSD on cooperative fibers. The host program
 * wires the flow-based graph, starts it and drains the typed result
 * ports. Build & run:
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace {

using namespace bisc;

/** Tokenizes its file argument and emits words (paper Code 2). */
class Mapper : public slet::SSDLet<slet::In<>, slet::Out<std::string>,
                                   slet::Arg<slet::File>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        std::vector<std::uint8_t> buf(32_KiB);
        std::string word;
        Bytes off = 0;
        while (true) {
            Bytes n = file.read(off, buf.data(), buf.size());
            if (n == 0)
                break;
            consumeCpu(n * 4);  // ~4 ns/B tokenizer on the device core
            for (Bytes i = 0; i < n; ++i) {
                char ch = static_cast<char>(buf[i]);
                if (ch == ' ' || ch == '\n' || ch == '\t') {
                    if (!word.empty())
                        out<0>().put(std::move(word));
                    word.clear();
                } else {
                    word.push_back(ch);
                }
            }
            off += n;
        }
        if (!word.empty())
            out<0>().put(std::move(word));
    }
};

/** Routes words to one of two reducers by hash. */
class Shuffler
    : public slet::SSDLet<slet::In<std::string>,
                          slet::Out<std::string, std::string>,
                          slet::Arg<>>
{
  public:
    void
    run() override
    {
        std::string w;
        while (in<0>().get(w)) {
            if (std::hash<std::string>{}(w) % 2 == 0)
                out<0>().put(std::move(w));
            else
                out<1>().put(std::move(w));
        }
    }
};

/** Counts word frequencies, emits (word, count) pairs at EOF. */
class Reducer
    : public slet::SSDLet<
          slet::In<std::string>,
          slet::Out<std::pair<std::string, std::uint32_t>>, slet::Arg<>>
{
  public:
    void
    run() override
    {
        std::map<std::string, std::uint32_t> counts;
        std::string w;
        while (in<0>().get(w))
            ++counts[w];
        for (auto &kv : counts)
            out<0>().put(kv);
    }
};

DeclareModule("wordcount", 90'520);
RegisterSSDLet("wordcount", "idMapper", Mapper);
RegisterSSDLet("wordcount", "idShuffler", Shuffler);
RegisterSSDLet("wordcount", "idReducer", Reducer);

const char *kSampleText =
    "the quick brown fox jumps over the lazy dog\n"
    "near data processing moves compute to the data\n"
    "the data stays put and the answers come out\n"
    "the fox approves of the biscuit framework\n";

}  // namespace

int
main()
{
    // Bring up the platform: simulated NVMe SSD + Biscuit runtime.
    sisc::Env env;
    env.installModule("/var/isc/slets/wordcount.slet", "wordcount");
    env.fs.populate("/data/input.txt", kSampleText,
                    std::string(kSampleText).size());

    env.run([&] {
        // --- everything below is paper Code 3, almost verbatim ---
        sisc::SSD ssd(env.runtime, "/dev/nvme0n1");
        auto mid = ssd.loadModule(
            sisc::File(ssd, "/var/isc/slets/wordcount.slet"));

        sisc::Application wc(ssd);
        sisc::SSDLet mapper1(
            wc, mid, "idMapper",
            std::make_tuple(slet::File("/data/input.txt")));
        sisc::SSDLet shuffler(wc, mid, "idShuffler");
        sisc::SSDLet reducer1(wc, mid, "idReducer");
        sisc::SSDLet reducer2(wc, mid, "idReducer");

        wc.connect(mapper1.out(0), shuffler.in(0));
        wc.connect(shuffler.out(0), reducer1.in(0));
        wc.connect(shuffler.out(1), reducer2.in(0));
        auto port1 =
            wc.connectTo<std::pair<std::string, std::uint32_t>>(
                reducer1.out(0));
        auto port2 =
            wc.connectTo<std::pair<std::string, std::uint32_t>>(
                reducer2.out(0));

        wc.start();

        std::map<std::string, std::uint32_t> merged;
        std::pair<std::string, std::uint32_t> value;
        while (port1.get(value))
            merged[value.first] += value.second;
        while (port2.get(value))
            merged[value.first] += value.second;

        wc.wait();
        ssd.unloadModule(mid);

        std::printf("wordcount results (computed inside the SSD):\n");
        for (const auto &[word, freq] : merged)
            std::printf("  %-12s %u\n", word.c_str(), freq);
        std::printf("\nsimulated time: %.2f ms, device user memory "
                    "in use after teardown: %llu bytes\n",
                    toMicros(env.kernel.now()) / 1000.0,
                    static_cast<unsigned long long>(
                        env.runtime.userAllocator().used()));
    });
    return 0;
}
