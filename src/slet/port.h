/**
 * @file
 * Device-side typed ports (paper §III-C, Fig. 4).
 *
 * InputPort<T>/OutputPort<T> are the only way SSDlets exchange data.
 * The port charges the timing its flavor implies (Table II):
 *
 *  - inter-SSDlet:  scheduling + type (de)abstraction on the app core
 *  - inter-app:     scheduling only (Packet moves between cores)
 *  - host<->device: channel-manager work on the device core plus the
 *    PCIe hop (the host side charges its half in libsisc)
 *
 * Blocking semantics: get() suspends the fiber while the queue is
 * empty and returns false at end-of-stream; put() suspends while the
 * bounded queue is full.
 */

#ifndef BISCUIT_SLET_PORT_H_
#define BISCUIT_SLET_PORT_H_

#include <memory>
#include <optional>
#include <typeindex>
#include <utility>

#include "runtime/runtime.h"
#include "runtime/ssdlet_base.h"
#include "runtime/stream.h"
#include "util/log.h"
#include "util/serialize.h"

namespace bisc::slet {

namespace detail {

/** Build the inter-SSDlet connection factory for element type T. */
template <typename T>
std::function<std::shared_ptr<rt::Connection>(sim::Kernel &,
                                              std::size_t)>
typedConnFactory()
{
    return [](sim::Kernel &k, std::size_t cap) {
        auto conn = std::make_shared<rt::Connection>();
        auto ts = std::make_shared<rt::TypedStream<T>>(k, cap);
        conn->flavor = rt::Flavor::kInterSsdlet;
        conn->elem = std::type_index(typeid(T));
        conn->typed = ts;
        conn->add_producer = [ts] { ts->addProducer(); };
        conn->remove_producer = [ts] { ts->removeProducer(); };
        return conn;
    };
}

template <typename T>
rt::PortInfo
makeInfo()
{
    rt::PortInfo info;
    info.type = std::type_index(typeid(T));
    info.serializable = IsSerializable<T>::value;
    info.make_typed = typedConnFactory<T>();
    return info;
}

}  // namespace detail

template <typename T>
class InputPort
{
  public:
    InputPort() = default;

    bool connected() const { return conn_ != nullptr; }

    /**
     * Receive the next value; blocks the fiber until data arrives.
     * Returns false once every producer finished and the stream
     * drained (end of stream).
     */
    bool
    get(T &v)
    {
        BISC_ASSERT(conn_ != nullptr, "get() on an unconnected port");
        auto &ctx = owner_->context();
        sim::Kernel &k = ctx.runtime->kernel();
        if (recv_wait_ == nullptr)
            recv_wait_ = &k.obs().metrics().histogram(
                ctx.runtime->metricScope() + "slet.port_recv_wait");
        [[maybe_unused]] Tick t0 = k.now();
        bool ok = getImpl(v, ctx);
        if (ok)
            OBS_HIST(*recv_wait_, k.now() - t0);
        return ok;
    }

  private:
    bool
    getImpl(T &v, rt::DeviceContext &ctx)
    {
        const auto &cfg = ctx.runtime->config();
        switch (conn_->flavor) {
          case rt::Flavor::kInterSsdlet: {
            auto ts = std::static_pointer_cast<rt::TypedStream<T>>(
                conn_->typed);
            if (!ts->get(v))
                return false;
            ctx.core->compute(cfg.sched_latency +
                              cfg.type_abstraction);
            rt::ContextBinder<T>::bind(v, ctx);
            return true;
          }
          case rt::Flavor::kHostToDevice:
          case rt::Flavor::kInterApp: {
            Packet p;
            if (!conn_->packets->awaitPacket(p))
                return false;
            Tick charge =
                conn_->flavor == rt::Flavor::kHostToDevice
                    ? cfg.dev_cm_recv + cfg.sched_latency
                    : cfg.sched_latency;
            ctx.core->compute(charge);
            if constexpr (IsSerializable<T>::value) {
                PortWire<T>::unpack(p, v);
                rt::ContextBinder<T>::bind(v, ctx);
                return true;
            } else {
                BISC_PANIC("non-serializable type on a packet port");
            }
          }
          case rt::Flavor::kDeviceToHost:
            BISC_PANIC("device input bound to a device-to-host "
                       "connection");
        }
        return false;
    }

  public:
    /** Non-blocking receive (no data: empty optional, no charge). */
    std::optional<T>
    tryGet()
    {
        BISC_ASSERT(conn_ != nullptr, "tryGet() on unconnected port");
        auto &ctx = owner_->context();
        const auto &cfg = ctx.runtime->config();
        if (conn_->flavor == rt::Flavor::kInterSsdlet) {
            auto ts = std::static_pointer_cast<rt::TypedStream<T>>(
                conn_->typed);
            auto v = ts->tryGet();
            if (v) {
                ctx.core->compute(cfg.sched_latency +
                                  cfg.type_abstraction);
                rt::ContextBinder<T>::bind(*v, ctx);
            }
            return v;
        }
        Packet p;
        if (!conn_->packets->tryGet(p))
            return std::nullopt;
        Tick charge = conn_->flavor == rt::Flavor::kHostToDevice
                          ? cfg.dev_cm_recv + cfg.sched_latency
                          : cfg.sched_latency;
        ctx.core->compute(charge);
        if constexpr (IsSerializable<T>::value) {
            T v;
            PortWire<T>::unpack(p, v);
            rt::ContextBinder<T>::bind(v, ctx);
            return v;
        } else {
            BISC_PANIC("non-serializable type on a packet port");
        }
    }

    // ----- runtime-facing plumbing -----

    rt::PortInfo info() const { return detail::makeInfo<T>(); }

    void bind(std::shared_ptr<rt::Connection> c) { conn_ = std::move(c); }

    std::shared_ptr<rt::Connection> connection() const { return conn_; }

    void setOwner(rt::SsdletBase *o) { owner_ = o; }

  private:
    rt::SsdletBase *owner_ = nullptr;
    std::shared_ptr<rt::Connection> conn_;

    /** Sim-time from get() entry to value delivery (lazy handle). */
    obs::Histogram *recv_wait_ = nullptr;
};

template <typename T>
class OutputPort
{
  public:
    OutputPort() = default;

    bool connected() const { return conn_ != nullptr; }

    /** Send a value; blocks the fiber while the bounded queue is full. */
    void
    put(T v)
    {
        BISC_ASSERT(conn_ != nullptr, "put() on an unconnected port");
        auto &ctx = owner_->context();
        sim::Kernel &k = ctx.runtime->kernel();
        if (send_wait_ == nullptr)
            send_wait_ = &k.obs().metrics().histogram(
                ctx.runtime->metricScope() + "slet.port_send_wait");
        [[maybe_unused]] Tick t0 = k.now();
        putImpl(std::move(v), ctx);
        OBS_HIST(*send_wait_, k.now() - t0);
    }

  private:
    void
    putImpl(T v, rt::DeviceContext &ctx)
    {
        const auto &cfg = ctx.runtime->config();
        switch (conn_->flavor) {
          case rt::Flavor::kInterSsdlet: {
            auto ts = std::static_pointer_cast<rt::TypedStream<T>>(
                conn_->typed);
            ts->put(std::move(v));
            return;
          }
          case rt::Flavor::kDeviceToHost: {
            if constexpr (IsSerializable<T>::value) {
                conn_->packets->acquireSlot();
                // Channel-manager sender work on the device core,
                // then the PCIe hop.
                ctx.core->compute(cfg.dev_cm_send);
                Packet p = PortWire<T>::pack(v);
                Bytes bytes = PortWire<T>::bytes(p);
                Tick arrive =
                    ctx.runtime->device().hil().messageToHost(
                        bytes, ctx.runtime->kernel().now());
                conn_->packets->deliverAt(arrive, std::move(p));
                return;
            } else {
                BISC_PANIC("non-serializable type on a packet port");
            }
          }
          case rt::Flavor::kInterApp: {
            if constexpr (IsSerializable<T>::value) {
                conn_->packets->acquireSlot();
                conn_->packets->deliverNow(PortWire<T>::pack(v));
                return;
            } else {
                BISC_PANIC("non-serializable type on a packet port");
            }
          }
          case rt::Flavor::kHostToDevice:
            BISC_PANIC("device output bound to a host-to-device "
                       "connection");
        }
    }

  public:
    // ----- runtime-facing plumbing -----

    rt::PortInfo info() const { return detail::makeInfo<T>(); }

    void bind(std::shared_ptr<rt::Connection> c) { conn_ = std::move(c); }

    std::shared_ptr<rt::Connection> connection() const { return conn_; }

    void setOwner(rt::SsdletBase *o) { owner_ = o; }

  private:
    rt::SsdletBase *owner_ = nullptr;
    std::shared_ptr<rt::Connection> conn_;

    /** Sim-time from put() entry to hand-off (lazy handle). */
    obs::Histogram *send_wait_ = nullptr;
};

}  // namespace bisc::slet

#endif  // BISCUIT_SLET_PORT_H_
