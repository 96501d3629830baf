/**
 * @file
 * End-to-end tests of the Biscuit programming model: the paper's
 * wordcount application (Fig. 5, Codes 1-3), port semantics for every
 * flavor (typed inter-SSDlet, host-to-device, device-to-host,
 * inter-application), SPMC/MPSC sharing, backpressure, file arguments
 * and the Table II latency decomposition.
 */

#include <gtest/gtest.h>

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

namespace bisc {
namespace {

using sisc::Env;

// ===== Wordcount module (paper Fig. 5) =====

/** Tokenizes a file into words. */
class Mapper : public slet::SSDLet<slet::In<>, slet::Out<std::string>,
                                   slet::Arg<slet::File>>
{
  public:
    void
    run() override
    {
        auto &file = arg<0>();
        std::vector<std::uint8_t> buf(16_KiB);
        std::string word;
        Bytes off = 0;
        while (true) {
            Bytes n = file.read(off, buf.data(), buf.size());
            if (n == 0)
                break;
            consumeCpu(n * 4);  // ~4 ns/B tokenize on the device core
            for (Bytes i = 0; i < n; ++i) {
                char c = static_cast<char>(buf[i]);
                if (c == ' ' || c == '\n') {
                    if (!word.empty())
                        out<0>().put(std::move(word));
                    word.clear();
                } else {
                    word.push_back(c);
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

/** Counts word frequencies and emits (word, count) pairs. */
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

DeclareModule("wordcount_t", 90'520);
RegisterSSDLet("wordcount_t", "idMapper", Mapper);
RegisterSSDLet("wordcount_t", "idShuffler", Shuffler);
RegisterSSDLet("wordcount_t", "idReducer", Reducer);

TEST(Wordcount, EndToEndMatchesHostCount)
{
    Env env(ssd::testConfig());
    env.installModule("/var/isc/slets/wordcount.slet", "wordcount_t");
    std::string text =
        "the quick brown fox jumps over the lazy dog\n"
        "the fox counts the words the fox sees\n";
    env.fs.populate("/data/input.txt", text.data(), text.size());

    std::map<std::string, std::uint32_t> result;
    Tick finished = env.run([&] {
        sisc::SSD ssd(env.runtime, "/dev/nvme0n1");
        auto mid = ssd.loadModule(
            sisc::File(ssd, "/var/isc/slets/wordcount.slet"));

        sisc::Application wc(ssd);
        sisc::SSDLet mapper(
            wc, mid, "idMapper",
            std::make_tuple(slet::File("/data/input.txt")));
        sisc::SSDLet shuffler(wc, mid, "idShuffler");
        sisc::SSDLet reducer1(wc, mid, "idReducer");
        sisc::SSDLet reducer2(wc, mid, "idReducer");

        wc.connect(mapper.out(0), shuffler.in(0));
        wc.connect(shuffler.out(0), reducer1.in(0));
        wc.connect(shuffler.out(1), reducer2.in(0));
        auto port1 =
            wc.connectTo<std::pair<std::string, std::uint32_t>>(
                reducer1.out(0));
        auto port2 =
            wc.connectTo<std::pair<std::string, std::uint32_t>>(
                reducer2.out(0));

        wc.start();
        std::pair<std::string, std::uint32_t> value;
        while (port1.get(value))
            result[value.first] += value.second;
        while (port2.get(value))
            result[value.first] += value.second;
        wc.wait();
        ssd.unloadModule(mid);
    });

    // Reference count on the host.
    std::map<std::string, std::uint32_t> expect;
    std::string word;
    for (char c : text) {
        if (c == ' ' || c == '\n') {
            if (!word.empty())
                ++expect[word];
            word.clear();
        } else {
            word.push_back(c);
        }
    }
    EXPECT_EQ(result, expect);
    EXPECT_EQ(result["the"], 5u);
    EXPECT_EQ(result["fox"], 3u);
    EXPECT_GT(finished, 0u);
    EXPECT_EQ(env.runtime.loadedModules(), 0u);
}

// ===== Port latency decomposition (paper Table II) =====

/** Emits current-device-time ticks. */
class TickSource
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<std::uint32_t>>
{
  public:
    void
    run() override
    {
        auto &k = context().runtime->kernel();
        for (std::uint32_t i = 0; i < arg<0>(); ++i)
            out<0>().put(k.now());
    }
};

/** Receives ticks and records one-way latencies. */
class TickSink
    : public slet::SSDLet<slet::In<std::uint64_t>, slet::Out<>,
                          slet::Arg<>>
{
  public:
    static std::vector<Tick> deltas;

    void
    run() override
    {
        auto &k = context().runtime->kernel();
        std::uint64_t sent;
        while (in<0>().get(sent))
            deltas.push_back(k.now() - sent);
    }
};

std::vector<Tick> TickSink::deltas;

DeclareModule("latency_t", 98'696);
RegisterSSDLet("latency_t", "idTickSource", TickSource);
RegisterSSDLet("latency_t", "idTickSink", TickSink);

/**
 * Ping side of a latency ping-pong: stamps device time, sends, waits
 * for the echo before the next round — so exactly one message is ever
 * in flight and each delta is a clean one-way latency.
 */
class PingLet
    : public slet::SSDLet<slet::In<std::uint64_t>,
                          slet::Out<std::uint64_t>,
                          slet::Arg<std::uint32_t>>
{
  public:
    void
    run() override
    {
        auto &k = context().runtime->kernel();
        std::uint64_t ack;
        for (std::uint32_t i = 0; i < arg<0>(); ++i) {
            out<0>().put(k.now());
            if (!in<0>().get(ack))
                break;
        }
    }
};

/** Pong side: records one-way deltas, echoes its own stamp back. */
class PongLet
    : public slet::SSDLet<slet::In<std::uint64_t>,
                          slet::Out<std::uint64_t>, slet::Arg<>>
{
  public:
    static std::vector<Tick> deltas;

    void
    run() override
    {
        auto &k = context().runtime->kernel();
        std::uint64_t sent;
        while (in<0>().get(sent)) {
            deltas.push_back(k.now() - sent);
            out<0>().put(k.now());
        }
    }
};

std::vector<Tick> PongLet::deltas;

RegisterSSDLet("latency_t", "idPing", PingLet);
RegisterSSDLet("latency_t", "idPong", PongLet);

class PortLatencyTest : public ::testing::Test
{
  protected:
    PortLatencyTest() : env_(ssd::testConfig())
    {
        TickSink::deltas.clear();
        PongLet::deltas.clear();
        env_.installModule("/lat.slet", "latency_t");
    }

    Env env_;
};

TEST_F(PortLatencyTest, InterSsdletLatencyIsSchedPlusType)
{
    const auto &cfg = env_.device.config();
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/lat.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet ping(app, mid, "idPing",
                          std::make_tuple(std::uint32_t{16}));
        sisc::SSDLet pong(app, mid, "idPong");
        app.connect(ping.out(0), pong.in(0));
        app.connect(pong.out(0), ping.in(0));
        app.start();
        app.wait();
    });
    ASSERT_GE(PongLet::deltas.size(), 8u);
    // One transfer costs scheduling + type (de)abstraction:
    // 10.7 + 20.3 = 31.0 us (paper Table II).
    Tick expect = cfg.sched_latency + cfg.type_abstraction;
    EXPECT_EQ(PongLet::deltas.back(), expect);
    EXPECT_NEAR(toMicros(PongLet::deltas.back()), 31.0, 0.1);
}

TEST_F(PortLatencyTest, InterAppLatencyIsSchedOnly)
{
    const auto &cfg = env_.device.config();
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/lat.slet"));
        sisc::Application a(ssd), b(ssd);
        sisc::SSDLet ping(a, mid, "idPing",
                          std::make_tuple(std::uint32_t{16}));
        sisc::SSDLet pong(b, mid, "idPong");
        a.connect(ping.out(0), pong.in(0));  // spans apps: inter-app
        b.connect(pong.out(0), ping.in(0));
        a.start();
        b.start();
        a.wait();
        b.wait();
    });
    ASSERT_GE(PongLet::deltas.size(), 8u);
    EXPECT_EQ(PongLet::deltas.back(), cfg.sched_latency);
    EXPECT_NEAR(toMicros(PongLet::deltas.back()), 10.7, 0.1);
}

TEST_F(PortLatencyTest, HostDeviceLatenciesDecompose)
{
    const auto &cfg = env_.device.config();
    std::vector<Tick> d2h;
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/lat.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet pong(app, mid, "idPong");
        auto to_dev = app.connectFrom<std::uint64_t>(pong.in(0));
        auto from_dev = app.connectTo<std::uint64_t>(pong.out(0));
        app.start();
        for (int i = 0; i < 16; ++i) {
            to_dev.put(env_.kernel.now());
            std::uint64_t dev_stamp;
            ASSERT_TRUE(from_dev.get(dev_stamp));
            d2h.push_back(env_.kernel.now() - dev_stamp);
        }
        to_dev.close();
        app.wait();
    });
    ASSERT_GE(PongLet::deltas.size(), 8u);
    // H2D = host_cm_send + message + dev_cm_recv + sched = 301.6 us.
    Tick h2d_expect = cfg.host_cm_send +
                      cfg.hil_params.message_latency +
                      cfg.dev_cm_recv + cfg.sched_latency;
    EXPECT_NEAR(toMicros(PongLet::deltas.back()),
                toMicros(h2d_expect), 0.5);
    EXPECT_NEAR(toMicros(PongLet::deltas.back()), 301.6, 1.0);
    // D2H = dev_cm_send + message + host_cm_recv + sched = 130.1 us.
    Tick d2h_expect = cfg.dev_cm_send +
                      cfg.hil_params.message_latency +
                      cfg.host_cm_recv + cfg.sched_latency;
    EXPECT_NEAR(toMicros(d2h.back()), toMicros(d2h_expect), 0.5);
    EXPECT_NEAR(toMicros(d2h.back()), 130.1, 1.0);
}

// ===== Port semantics =====

/** Emits a fixed integer sequence. */
class SeqSource
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint32_t>,
                          slet::Arg<std::uint32_t, std::uint32_t>>
{
  public:
    void
    run() override
    {
        for (std::uint32_t i = 0; i < arg<1>(); ++i)
            out<0>().put(arg<0>() + i);
    }
};

/** Collects integers into a static sink, tagged by consumer. */
class SeqSink : public slet::SSDLet<slet::In<std::uint32_t>,
                                    slet::Out<>, slet::Arg<std::uint32_t>>
{
  public:
    static std::vector<std::pair<std::uint32_t, std::uint32_t>> seen;

    void
    run() override
    {
        std::uint32_t v;
        while (in<0>().get(v))
            seen.emplace_back(arg<0>(), v);
    }
};

std::vector<std::pair<std::uint32_t, std::uint32_t>> SeqSink::seen;

DeclareModule("seq_t", 82'088);
RegisterSSDLet("seq_t", "idSeqSource", SeqSource);
RegisterSSDLet("seq_t", "idSeqSink", SeqSink);

class PortSemanticsTest : public ::testing::Test
{
  protected:
    PortSemanticsTest() : env_(ssd::testConfig())
    {
        SeqSink::seen.clear();
        env_.installModule("/seq.slet", "seq_t");
    }

    Env env_;
};

TEST_F(PortSemanticsTest, MpscMergesAllProducers)
{
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/seq.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet s1(app, mid, "idSeqSource",
                        std::make_tuple(std::uint32_t{0},
                                        std::uint32_t{50}));
        sisc::SSDLet s2(app, mid, "idSeqSource",
                        std::make_tuple(std::uint32_t{1000},
                                        std::uint32_t{50}));
        sisc::SSDLet sink(app, mid, "idSeqSink",
                          std::make_tuple(std::uint32_t{7}));
        app.connect(s1.out(0), sink.in(0));
        app.connect(s2.out(0), sink.in(0));  // MPSC share
        app.start();
        app.wait();
    });
    EXPECT_EQ(SeqSink::seen.size(), 100u);
    int low = 0, high = 0;
    for (auto &[tag, v] : SeqSink::seen) {
        EXPECT_EQ(tag, 7u);
        (v < 1000 ? low : high)++;
    }
    EXPECT_EQ(low, 50);
    EXPECT_EQ(high, 50);
}

TEST_F(PortSemanticsTest, SpmcSplitsWorkAcrossConsumers)
{
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/seq.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet src(app, mid, "idSeqSource",
                         std::make_tuple(std::uint32_t{0},
                                         std::uint32_t{100}));
        sisc::SSDLet c1(app, mid, "idSeqSink",
                        std::make_tuple(std::uint32_t{1}));
        sisc::SSDLet c2(app, mid, "idSeqSink",
                        std::make_tuple(std::uint32_t{2}));
        app.connect(src.out(0), c1.in(0));
        app.connect(src.out(0), c2.in(0));  // SPMC share
        app.start();
        app.wait();
    });
    // Every value delivered exactly once, across both consumers.
    EXPECT_EQ(SeqSink::seen.size(), 100u);
    std::vector<bool> got(100, false);
    bool c1_got = false, c2_got = false;
    for (auto &[tag, v] : SeqSink::seen) {
        ASSERT_LT(v, 100u);
        EXPECT_FALSE(got[v]) << "duplicate " << v;
        got[v] = true;
        c1_got |= (tag == 1);
        c2_got |= (tag == 2);
    }
    EXPECT_TRUE(c1_got);
    EXPECT_TRUE(c2_got);
}

TEST_F(PortSemanticsTest, TypeMismatchIsFatal)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            env_.installModule("/lat2.slet", "latency_t");
            auto m1 = ssd.loadModule(sisc::File(ssd, "/seq.slet"));
            auto m2 = ssd.loadModule(sisc::File(ssd, "/lat2.slet"));
            sisc::Application app(ssd);
            // uint32_t output into a uint64_t input: rejected.
            sisc::SSDLet src(app, m1, "idSeqSource",
                             std::make_tuple(std::uint32_t{0},
                                             std::uint32_t{1}));
            sisc::SSDLet sink(app, m2, "idTickSink");
            app.connect(src.out(0), sink.in(0));
        }),
        "type mismatch");
}

TEST_F(PortSemanticsTest, HostPortTypeMismatchIsFatal)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/seq.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet src(app, mid, "idSeqSource",
                             std::make_tuple(std::uint32_t{0},
                                             std::uint32_t{1}));
            app.connectTo<std::string>(src.out(0));
        }),
        "type");
}

TEST_F(PortSemanticsTest, BackpressureBoundsQueueDepth)
{
    // A source that produces 4x the queue capacity into a slow
    // consumer must block rather than grow the queue.
    auto cfg = ssd::testConfig();
    cfg.port_queue_capacity = 4;
    Env env(cfg);
    SeqSink::seen.clear();
    env.installModule("/seq.slet", "seq_t");
    env.run([&] {
        sisc::SSD ssd(env.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/seq.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet src(app, mid, "idSeqSource",
                         std::make_tuple(std::uint32_t{0},
                                         std::uint32_t{16}));
        sisc::SSDLet sink(app, mid, "idSeqSink",
                          std::make_tuple(std::uint32_t{0}));
        app.connect(src.out(0), sink.in(0));
        app.start();
        app.wait();
    });
    EXPECT_EQ(SeqSink::seen.size(), 16u);
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(SeqSink::seen[i].second, i);  // order preserved
}

TEST_F(PortSemanticsTest, HostRoundTrip)
{
    // Host feeds values H2D; device echoes them back D2H via a sink
    // that forwards. Reuse TickSource/TickSink? Simpler: SeqSource to
    // host only.
    std::vector<std::uint32_t> got;
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        auto mid = ssd.loadModule(sisc::File(ssd, "/seq.slet"));
        sisc::Application app(ssd);
        sisc::SSDLet src(app, mid, "idSeqSource",
                         std::make_tuple(std::uint32_t{5},
                                         std::uint32_t{20}));
        auto port = app.connectTo<std::uint32_t>(src.out(0));
        app.start();
        std::uint32_t v;
        while (port.get(v))
            got.push_back(v);
        app.wait();
    });
    ASSERT_EQ(got.size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], 5 + i);  // data-ordered delivery
}

}  // namespace
}  // namespace bisc
