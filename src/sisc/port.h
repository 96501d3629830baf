/**
 * @file
 * Host-side typed ports over host-to-device data channels.
 *
 * InputPort<T> consumes a device-to-host stream; OutputPort<T> feeds a
 * host-to-device stream. Both charge the host half of the Table II
 * latency decomposition (the device half is charged by libslet).
 */

#ifndef BISCUIT_SISC_PORT_H_
#define BISCUIT_SISC_PORT_H_

#include <memory>
#include <optional>

#include "runtime/runtime.h"
#include "runtime/stream.h"
#include "sisc/ssd.h"
#include "util/serialize.h"

namespace bisc::sisc {

template <typename T>
class InputPort
{
    static_assert(IsSerializable<T>::value,
                  "host-to-device data must be (de)serializable");

  public:
    InputPort() = default;

    InputPort(SSD *ssd, std::shared_ptr<rt::Connection> conn)
        : ssd_(ssd), conn_(std::move(conn))
    {}

    bool connected() const { return conn_ != nullptr; }

    /**
     * Receive the next value from the device; blocks the host fiber.
     * Returns false at end of stream (every producing SSDlet done).
     */
    bool
    get(T &v)
    {
        BISC_ASSERT(conn_ != nullptr, "get() on unconnected host port");
        sim::Kernel &k = ssd_->runtime().kernel();
        if (recv_wait_ == nullptr)
            recv_wait_ = &k.obs().metrics().histogram(
                ssd_->runtime().metricScope() +
                "sisc.port_recv_wait");
        [[maybe_unused]] Tick t0 = k.now();
        Packet p;
        if (!conn_->packets->awaitPacket(p))
            return false;
        const auto &cfg = ssd_->config();
        k.sleep(cfg.host_cm_recv + cfg.sched_latency);
        PortWire<T>::unpack(p, v);
        OBS_HIST(*recv_wait_, k.now() - t0);
        return true;
    }

    /** Non-blocking receive. */
    std::optional<T>
    tryGet()
    {
        BISC_ASSERT(conn_ != nullptr, "tryGet() on unconnected port");
        Packet p;
        if (!conn_->packets->tryGet(p))
            return std::nullopt;
        const auto &cfg = ssd_->config();
        ssd_->runtime().kernel().sleep(cfg.host_cm_recv +
                                       cfg.sched_latency);
        T v;
        PortWire<T>::unpack(p, v);
        return v;
    }

  private:
    SSD *ssd_ = nullptr;
    std::shared_ptr<rt::Connection> conn_;

    /** Sim-time from get() entry to value delivery (lazy handle). */
    obs::Histogram *recv_wait_ = nullptr;
};

template <typename T>
class OutputPort
{
    static_assert(IsSerializable<T>::value,
                  "host-to-device data must be (de)serializable");

  public:
    OutputPort() = default;

    OutputPort(SSD *ssd, std::shared_ptr<rt::Connection> conn)
        : ssd_(ssd), conn_(std::move(conn))
    {
        conn_->add_producer();
    }

    OutputPort(const OutputPort &) = delete;
    OutputPort &operator=(const OutputPort &) = delete;

    OutputPort(OutputPort &&other) noexcept { swap(other); }

    OutputPort &
    operator=(OutputPort &&other) noexcept
    {
        swap(other);
        return *this;
    }

    ~OutputPort() { close(); }

    bool connected() const { return conn_ != nullptr; }

    /** Ship a value to the device; blocks while out of credits. */
    void
    put(T v)
    {
        BISC_ASSERT(conn_ != nullptr && !closed_,
                    "put() on a closed or unconnected host port");
        auto &k = ssd_->runtime().kernel();
        if (send_wait_ == nullptr)
            send_wait_ = &k.obs().metrics().histogram(
                ssd_->runtime().metricScope() +
                "sisc.port_send_wait");
        [[maybe_unused]] Tick t0 = k.now();
        conn_->packets->acquireSlot();
        const auto &cfg = ssd_->config();
        k.sleep(cfg.host_cm_send);
        Packet p = PortWire<T>::pack(v);
        Bytes bytes = PortWire<T>::bytes(p);
        Tick arrive = ssd_->runtime().device().hil().messageToDevice(
            bytes, k.now());
        conn_->packets->deliverAt(arrive, std::move(p));
        OBS_HIST(*send_wait_, k.now() - t0);
    }

    /**
     * Signal end of stream to the device side. Idempotent; also runs
     * on destruction.
     */
    void
    close()
    {
        if (conn_ != nullptr && !closed_) {
            closed_ = true;
            conn_->remove_producer();
        }
    }

  private:
    void
    swap(OutputPort &other)
    {
        std::swap(ssd_, other.ssd_);
        std::swap(conn_, other.conn_);
        std::swap(closed_, other.closed_);
        std::swap(send_wait_, other.send_wait_);
    }

    SSD *ssd_ = nullptr;
    std::shared_ptr<rt::Connection> conn_;
    bool closed_ = false;

    /** Sim-time from put() entry to link hand-off (lazy handle). */
    obs::Histogram *send_wait_ = nullptr;
};

}  // namespace bisc::sisc

#endif  // BISCUIT_SISC_PORT_H_
