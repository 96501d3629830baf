/**
 * @file
 * Edge-case tests for the port stack: stream lifecycle (close with
 * packets in flight), flow-control credits, connection-misuse
 * rejection, host pwrite, and the HIL link model.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hil/hil.h"
#include "runtime/stream.h"
#include "sisc/application.h"
#include "sisc/env.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/ssdlet.h"
#include "util/common.h"

namespace bisc {
namespace {

// ----- PacketStream mechanics -----

TEST(PacketStream, InFlightPacketsArriveBeforeClose)
{
    sim::Kernel k;
    rt::PacketStream s(k, 4);
    s.addProducer();

    std::vector<int> got;
    k.spawn("consumer", [&] {
        Packet p;
        while (s.awaitPacket(p))
            got.push_back(p.get<int>());
    });
    k.spawn("producer", [&] {
        for (int i = 0; i < 3; ++i) {
            s.acquireSlot();
            Packet p;
            p.put<int>(i);
            // Arrival is 100 us out; producer finishes (and closes)
            // long before delivery.
            s.deliverAt(sim::Kernel::current().now() + 100 * kUsec,
                        std::move(p));
        }
        s.removeProducer();
    });
    k.run();
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(PacketStream, CreditsBlockProducerAtCapacity)
{
    sim::Kernel k;
    rt::PacketStream s(k, 2);
    s.addProducer();
    Tick third_send = 0;
    k.spawn("producer", [&] {
        for (int i = 0; i < 3; ++i) {
            s.acquireSlot();  // third acquire must block
            third_send = sim::Kernel::current().now();
            Packet p;
            p.put<int>(i);
            s.deliverNow(std::move(p));
        }
        s.removeProducer();
    });
    k.spawn("consumer", [&] {
        auto &kk = sim::Kernel::current();
        kk.sleep(1 * kMsec);  // let the producer hit the limit
        Packet p;
        while (s.awaitPacket(p)) {
        }
    });
    k.run();
    // The third slot only frees once the consumer drains at t=1ms.
    EXPECT_GE(third_send, 1 * kMsec);
}

TEST(TypedStream, EndOfStreamAfterLastProducer)
{
    sim::Kernel k;
    rt::TypedStream<int> s(k, 8);
    s.addProducer();
    s.addProducer();
    int received = 0;
    bool eof = false;
    k.spawn("consumer", [&] {
        int v;
        while (s.get(v))
            ++received;
        eof = true;
    });
    k.spawn("p1", [&] {
        s.put(1);
        s.removeProducer();
    });
    k.spawn("p2", [&] {
        sim::Kernel::current().sleep(10);
        s.put(2);
        s.removeProducer();
    });
    k.run();
    EXPECT_EQ(received, 2);
    EXPECT_TRUE(eof);
}

// ----- Connection misuse -----

class IntSource : public slet::SSDLet<slet::In<>,
                                      slet::Out<std::uint32_t>,
                                      slet::Arg<>>
{
  public:
    void run() override { out<0>().put(1); }
};

class IntSink : public slet::SSDLet<slet::In<std::uint32_t>,
                                    slet::Out<>, slet::Arg<>>
{
  public:
    void
    run() override
    {
        std::uint32_t v;
        while (in<0>().get(v)) {
        }
    }
};

DeclareModule("port_edge", 82'088);
RegisterSSDLet("port_edge", "idIntSource", IntSource);
RegisterSSDLet("port_edge", "idIntSink", IntSink);

class PortMisuseTest : public ::testing::Test
{
  protected:
    PortMisuseTest() : env_(ssd::testConfig())
    {
        env_.installModule("/pe.slet", "port_edge");
    }

    sisc::Env env_;
};

TEST_F(PortMisuseTest, OutputToOutputIsRejected)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/pe.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet a(app, mid, "idIntSource");
            sisc::SSDLet b(app, mid, "idIntSource");
            app.connect(a.out(0), b.out(0));
        }),
        "output, input");
}

TEST_F(PortMisuseTest, PortIndexOutOfRangeIsRejected)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/pe.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet a(app, mid, "idIntSource");
            sisc::SSDLet b(app, mid, "idIntSink");
            app.connect(a.out(5), b.in(0));
        }),
        "out of range");
}

TEST_F(PortMisuseTest, HostPortIsSpscOnly)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/pe.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet a(app, mid, "idIntSource");
            auto p1 = app.connectTo<std::uint32_t>(a.out(0));
            auto p2 = app.connectTo<std::uint32_t>(a.out(0));
        }),
        "SPSC");
}

TEST_F(PortMisuseTest, UnconnectedDevicePortPanicsOnUse)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/pe.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet a(app, mid, "idIntSource");  // out unbound
            app.start();
            app.wait();
        }),
        "unconnected port");
}

TEST_F(PortMisuseTest, DoubleStartIsRejected)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/pe.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet a(app, mid, "idIntSource");
            sisc::SSDLet b(app, mid, "idIntSink");
            app.connect(a.out(0), b.in(0));
            app.start();
            app.start();
        }),
        "startApp called twice");
}

TEST_F(PortMisuseTest, CreateInstanceAfterStartIsRejected)
{
    EXPECT_DEATH(
        env_.run([&] {
            sisc::SSD ssd(env_.runtime);
            auto mid = ssd.loadModule(sisc::File(ssd, "/pe.slet"));
            sisc::Application app(ssd);
            sisc::SSDLet a(app, mid, "idIntSource");
            sisc::SSDLet b(app, mid, "idIntSink");
            app.connect(a.out(0), b.in(0));
            app.start();
            sisc::SSDLet late(app, mid, "idIntSink");
        }),
        "after start");
}

// ----- Host pwrite -----

class HostPwriteTest : public ::testing::Test
{
  protected:
    HostPwriteTest() : env_(ssd::testConfig()) {}

    sisc::Env env_;
};

TEST_F(HostPwriteTest, AlignedAndUnalignedWrites)
{
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        sisc::File f(ssd, "/w");
        const std::string a(5000, 'A');
        Tick t0 = env_.kernel.now();
        f.pwrite(0, a.data(), a.size());
        EXPECT_GT(env_.kernel.now(), t0);  // timed path

        // Unaligned overwrite merges with existing bytes.
        const std::string b = "BBBB";
        f.pwrite(10, b.data(), b.size());

        std::vector<char> out(20);
        f.pread(0, out.data(), out.size());
        EXPECT_EQ(std::string(out.begin(), out.begin() + 10),
                  std::string(10, 'A'));
        EXPECT_EQ(std::string(out.begin() + 10, out.begin() + 14),
                  "BBBB");
        EXPECT_EQ(out[14], 'A');
        EXPECT_EQ(f.size(), 5000u);
    });
}

TEST_F(HostPwriteTest, WritePastEofExtendsWithZeros)
{
    env_.run([&] {
        sisc::SSD ssd(env_.runtime);
        sisc::File f(ssd, "/w2");
        const char tail[] = "tail";
        f.pwrite(10000, tail, sizeof(tail));
        EXPECT_EQ(f.size(), 10000u + sizeof(tail));
        std::vector<std::uint8_t> head(16, 0xFF);
        f.pread(0, head.data(), head.size());
        for (auto b : head)
            EXPECT_EQ(b, 0);
    });
}

// ----- HIL link model -----

TEST(Hil, DmaSerializesPerDirection)
{
    sim::Kernel k;
    hil::Hil h(k, hil::HilParams{});
    Tick a = h.dmaToHost(1_MiB, 0);
    Tick b = h.dmaToHost(1_MiB, 0);
    // Same direction: second transfer queues behind the first.
    EXPECT_GT(b, a);
    EXPECT_NEAR(static_cast<double>(b),
                static_cast<double>(2 * (a - 0)), 1000.0);
    // Opposite direction: full duplex, no queueing.
    Tick c = h.dmaToDevice(1_MiB, 0);
    EXPECT_LT(c, b);
}

TEST(Hil, MessageLatencyDominatesSmallPayloads)
{
    sim::Kernel k;
    hil::Hil h(k, hil::HilParams{});
    Tick t = h.messageToHost(64, 0);
    EXPECT_NEAR(toMicros(t), toMicros(hil::HilParams{}.message_latency),
                0.1);
}

TEST(Hil, EarliestBoundsTransferStart)
{
    sim::Kernel k;
    hil::Hil h(k, hil::HilParams{});
    Tick t = h.dmaToHost(4096, 5 * kMsec);
    EXPECT_GE(t, 5 * kMsec);
}

}  // namespace
}  // namespace bisc
