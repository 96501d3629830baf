/**
 * @file
 * Port plumbing: bounded streams and type-erased connections.
 *
 * Every Biscuit port is a bounded queue (paper §IV-B). Two stream kinds
 * exist:
 *
 *  - TypedStream<T>: inter-SSDlet traffic. Values of T move directly —
 *    "almost all data types except pointer and array types" — with no
 *    serialization. Lock-free by construction: all SSDlets of an
 *    application share one core, so enqueue/dequeue never race.
 *  - PacketStream: host-to-device and inter-application traffic, which
 *    the paper restricts to the Packet type with explicit
 *    (de)serialization, SPSC only. Producers take flow-control credits;
 *    deliveries may arrive later (PCIe transit) via scheduled events.
 *
 * Timing (channel-manager work, PCIe hops, scheduling latency) is
 * charged by the port wrappers in libslet/libsisc; streams only provide
 * ordering, blocking and lifecycle.
 */

#ifndef BISCUIT_RUNTIME_STREAM_H_
#define BISCUIT_RUNTIME_STREAM_H_

#include <memory>
#include <optional>
#include <typeindex>
#include <utility>

#include "sim/kernel.h"
#include "util/bounded_queue.h"
#include "util/packet.h"

namespace bisc::rt {

/** Where a connection's two endpoints live. */
enum class Flavor {
    kInterSsdlet,   ///< both ends in one Application on the device
    kDeviceToHost,  ///< device SSDlet output -> host program
    kHostToDevice,  ///< host program -> device SSDlet input
    kInterApp,      ///< SSDlets of two different Applications
};

/** Stream lifecycle shared by both stream kinds. */
class StreamLife
{
  public:
    void addProducer() { ++producers_; }

    /** Returns true when this removal closed the stream. */
    bool
    removeProducer()
    {
        if (producers_ > 0)
            --producers_;
        return producers_ == 0;
    }

    bool producersGone() const { return producers_ == 0; }

  private:
    int producers_ = 0;
};

/**
 * Inter-SSDlet stream: direct typed hand-off through a bounded queue.
 * SPSC/SPMC/MPSC are all legal (paper §III-C); competing consumers
 * simply race for items, which is the shared-queue realization the
 * paper describes.
 */
template <typename T>
class TypedStream
{
  public:
    TypedStream(sim::Kernel &kernel, std::size_t capacity)
        : kernel_(kernel), queue_(capacity), not_empty_(kernel),
          not_full_(kernel)
    {}

    void addProducer() { life_.addProducer(); }

    void
    removeProducer()
    {
        if (life_.removeProducer())
            not_empty_.notifyAll();  // wake consumers to see EOF
    }

    /** Blocking enqueue (fiber suspends while the queue is full). */
    void
    put(T v)
    {
        while (queue_.full())
            not_full_.wait();
        queue_.tryPush(std::move(v));
        not_empty_.notifyOne();
    }

    /**
     * Blocking dequeue; returns false when every producer has finished
     * and the queue has drained (end of stream).
     */
    bool
    get(T &v)
    {
        while (queue_.empty()) {
            if (life_.producersGone())
                return false;
            not_empty_.wait();
        }
        v = std::move(*queue_.tryPop());
        not_full_.notifyOne();
        return true;
    }

    /** Non-blocking dequeue. */
    std::optional<T>
    tryGet()
    {
        auto v = queue_.tryPop();
        if (v)
            not_full_.notifyOne();
        return v;
    }

    bool drained() const
    {
        return queue_.empty() && life_.producersGone();
    }

    std::size_t queued() const { return queue_.size(); }

  private:
    sim::Kernel &kernel_;
    BoundedQueue<T> queue_;
    sim::Waiter not_empty_;
    sim::Waiter not_full_;
    StreamLife life_;
};

/**
 * Packet stream crossing a boundary (host interface or application
 * boundary). Producers reserve a flow-control credit, then deliver the
 * packet at its modeled arrival tick; consumers block until a packet
 * lands or the stream closes.
 */
class PacketStream
{
  public:
    PacketStream(sim::Kernel &kernel, std::size_t capacity)
        : kernel_(kernel), capacity_(capacity), queue_(capacity),
          not_empty_(kernel), not_full_(kernel), credits_(capacity)
    {}

    void addProducer() { life_.addProducer(); }

    void
    removeProducer()
    {
        if (life_.removeProducer())
            not_empty_.notifyAll();
    }

    /**
     * Take a flow-control credit (blocks while capacity worth of
     * packets are queued or in flight).
     */
    void
    acquireSlot()
    {
        while (credits_ == 0)
            not_full_.wait();
        --credits_;
    }

    /** Deliver a packet at absolute tick @p when (PCIe arrival). */
    void
    deliverAt(Tick when, Packet p)
    {
        ++in_flight_;
        auto sp = std::make_shared<Packet>(std::move(p));
        kernel_.scheduleAt(when, [this, sp] {
            --in_flight_;
            bool ok = queue_.tryPush(std::move(*sp));
            BISC_ASSERT(ok, "packet stream overran its credits");
            not_empty_.notifyOne();
        });
    }

    /** Deliver immediately (same-device inter-application hop). */
    void
    deliverNow(Packet p)
    {
        bool ok = queue_.tryPush(std::move(p));
        BISC_ASSERT(ok, "packet stream overran its credits");
        not_empty_.notifyOne();
    }

    /**
     * Blocking receive; false when all producers finished and nothing
     * is queued or in flight.
     */
    bool
    awaitPacket(Packet &out)
    {
        while (queue_.empty()) {
            if (life_.producersGone() && in_flight_ == 0)
                return false;
            not_empty_.wait();
        }
        out = std::move(*queue_.tryPop());
        ++credits_;
        not_full_.notifyOne();
        return true;
    }

    /** Non-blocking receive. */
    bool
    tryGet(Packet &out)
    {
        if (queue_.empty())
            return false;
        out = std::move(*queue_.tryPop());
        ++credits_;
        not_full_.notifyOne();
        return true;
    }

    bool
    drained() const
    {
        return queue_.empty() && in_flight_ == 0 &&
               life_.producersGone();
    }

    std::size_t queued() const { return queue_.size(); }

  private:
    sim::Kernel &kernel_;
    std::size_t capacity_;
    BoundedQueue<Packet> queue_;
    sim::Waiter not_empty_;
    sim::Waiter not_full_;
    StreamLife life_;
    std::size_t credits_;
    std::size_t in_flight_ = 0;
};

/**
 * Keep @p p's buffer for a later sparePacket(). Consumers of Packet
 * ports hand drained Packets back, so a producer that builds one
 * Packet per send starts each on a kept buffer instead of regrowing it
 * from empty. A buffer outlives the connection it crossed: a scan
 * ships fewer batches than a port queues, so its sender rarely waits
 * for its own receiver. The cache is per thread and keeps at most a
 * few buffers however many drives and simulations the thread runs.
 * Memory only: neither call charges simulated time.
 */
void recyclePacket(Packet p);

/** An empty Packet, on a recycled buffer when one is kept. */
Packet sparePacket();

/**
 * A type-erased connection record: what Application::connect creates
 * and what device/host ports bind to. Exactly one of {typed, packets}
 * is set, per flavor.
 */
struct Connection
{
    Flavor flavor = Flavor::kInterSsdlet;
    std::type_index elem = std::type_index(typeid(void));
    std::shared_ptr<void> typed;            ///< TypedStream<T>
    std::shared_ptr<PacketStream> packets;  ///< packet-based flavors
    int producer_ends = 0;
    int consumer_ends = 0;

    /// Type-erased lifecycle thunks (close-on-last-producer).
    std::function<void()> add_producer;
    std::function<void()> remove_producer;
};

}  // namespace bisc::rt

#endif  // BISCUIT_RUNTIME_STREAM_H_
