/**
 * @file
 * Server: a serializing, busy-until timing resource.
 *
 * Models any component that processes one request at a time at a fixed
 * rate: a device CPU core, a PCIe link, a NAND channel bus. Callers
 * reserve work and sleep until their completion tick; back-to-back
 * reservations queue up FIFO, which is exactly the behaviour of a
 * cooperative core or a full-duplex link lane.
 */

#ifndef BISCUIT_SIM_SERVER_H_
#define BISCUIT_SIM_SERVER_H_

#include <string>

#include "sim/kernel.h"
#include "util/common.h"

namespace bisc::sim {

class Server
{
  public:
    /**
     * @param kernel owning kernel (provides the clock)
     * @param name diagnostic name
     * @param speed_factor multiplies every work reservation; >1 means
     *        slower (used to model contention or frequency scaling)
     */
    Server(Kernel &kernel, std::string name, double speed_factor = 1.0)
        : kernel_(kernel), name_(std::move(name)),
          speed_factor_(speed_factor)
    {}

    const std::string &name() const { return name_; }

    /** Change the speed factor (e.g., load-dependent contention). */
    void setSpeedFactor(double f) { speed_factor_ = f; }

    /**
     * Reserve @p work ticks of service. Returns the absolute completion
     * tick; does not block. Combine with Kernel::sleepUntil to model a
     * synchronous request, or schedule a callback for async ones.
     */
    Tick
    reserve(Tick work)
    {
        return reserveAt(kernel_.now(), work);
    }

    /**
     * Reserve @p work ticks of service starting no earlier than
     * @p earliest. Models pipelined stages: a DMA can only begin once
     * its NAND page transfer has completed.
     */
    Tick
    reserveAt(Tick earliest, Tick work)
    {
        Tick scaled = static_cast<Tick>(
            static_cast<double>(work) * speed_factor_ + 0.5);
        Tick start = earliest;
        if (busy_until_ > start)
            start = busy_until_;
        if (kernel_.now() > start)
            start = kernel_.now();
        busy_until_ = start + scaled;
        busy_ticks_ += scaled;
        ++requests_;
        return busy_until_;
    }

    /** Reserve service for @p bytes at @p bytes_per_sec. */
    Tick
    reserveTransfer(Bytes bytes, double bytes_per_sec)
    {
        return reserve(transferTicks(bytes, bytes_per_sec));
    }

    /** Blocking helper: reserve @p work and sleep to completion. */
    void
    compute(Tick work)
    {
        kernel_.sleepUntil(reserve(work));
    }

    /** Tick after which the server is free. */
    Tick busyUntil() const { return busy_until_; }

    /** Total busy time accumulated (for utilization stats). */
    Tick busyTicks() const { return busy_ticks_; }

    /** Total requests served. */
    std::uint64_t requests() const { return requests_; }

  private:
    Kernel &kernel_;
    std::string name_;
    double speed_factor_;
    Tick busy_until_ = 0;
    Tick busy_ticks_ = 0;
    std::uint64_t requests_ = 0;
};

}  // namespace bisc::sim

#endif  // BISCUIT_SIM_SERVER_H_
