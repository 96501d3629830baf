/**
 * @file
 * Reproduces paper Fig. 9 (system power during Query 1) and Table VI
 * (overall energy consumption).
 *
 * The power model: idle 103 W plus host-activity and SSD-activity
 * components (HostConfig). Utilization is sampled from the busy-tick
 * counters of the host CPU, the device cores and the flash channels
 * at a fixed simulated-time cadence while Query 1 runs on each
 * engine; energy is the time integral.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "host/host_system.h"
#include "sim/stats.h"
#include "sisc/env.h"
#include "tpch/dbgen.h"
#include "util/common.h"

namespace {

using namespace bisc;

/** Periodically samples utilization into a power trace. */
class PowerSampler
{
  public:
    PowerSampler(sisc::Env &env, host::HostSystem &host, Tick period)
        : env_(env), host_(host), period_(period),
          stopped_(std::make_shared<bool>(false))
    {
        arm();
    }

    ~PowerSampler() { *stopped_ = true; }

    void stop() { *stopped_ = true; }

    const sim::TimeSeries &trace() const { return trace_; }

  private:
    void
    arm()
    {
        // The pending event may outlive this sampler; the shared
        // stop flag keeps it from touching freed state.
        env_.kernel.schedule(period_, [this, stop = stopped_] {
            if (*stop)
                return;
            sample();
            arm();
        });
    }

    /**
     * Fraction of the last window a serializing server was busy:
     * reserves extend busyUntil into the future, so queued work
     * counts as busy time — exactly what a power meter would see.
     */
    double
    windowUtil(Tick busy_until) const
    {
        Tick now = env_.kernel.now();
        Tick w0 = now > period_ ? now - period_ : 0;
        Tick busy_hi = std::min(busy_until, now);
        if (busy_hi <= w0)
            return 0.0;
        return static_cast<double>(busy_hi - w0) /
               static_cast<double>(period_);
    }

    void
    sample()
    {
        double host_util = windowUtil(host_.cpu().busyUntil());

        double core_util = 0;
        for (std::uint32_t i = 0; i < env_.device.coreCount(); ++i)
            core_util = std::max(
                core_util, windowUtil(env_.device.core(i).busyUntil()));
        // Flash-channel activity is hard to see from busyUntil alone
        // at window granularity; device-core activity tracks the
        // offloaded scan and the conventional path's flash side is
        // bounded by the host-side utilization anyway.
        double ssd_util = core_util;

        trace_.record(env_.kernel.now(),
                      host_.power(std::min(1.0, host_util),
                                  std::min(1.0, ssd_util)));
    }

    sisc::Env &env_;
    host::HostSystem &host_;
    Tick period_;
    sim::TimeSeries trace_;
    std::shared_ptr<bool> stopped_;
};

void
printTrace(const char *label, const sim::TimeSeries &trace,
           Tick t_begin)
{
    // Subsample to ~36 points so the waveform stays readable.
    std::printf("%s power trace (W vs ms):\n  ", label);
    const auto &pts = trace.points();
    std::size_t step = std::max<std::size_t>(1, pts.size() / 36);
    int printed = 0;
    for (std::size_t i = 0; i < pts.size(); i += step) {
        if (printed && printed % 6 == 0)
            std::printf("\n  ");
        std::printf("(%6.1f, %5.1f) ",
                    toMicros(pts[i].first - t_begin) / 1000.0,
                    pts[i].second);
        ++printed;
    }
    std::printf("\n");
}

}  // namespace

int
main()
{
    sisc::Env env(ssd::defaultConfig(), 1);
    host::HostSystem host(env.array);
    db::MiniDb mdb(env, host);
    mdb.planner.min_table_bytes = 512_KiB;

    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.05;
    std::printf("populating TPC-H at SF %.2f...\n\n",
                cfg.scale_factor);
    tpch::buildTpch(mdb, cfg);
    auto &L = mdb.table("lineitem");
    auto pred = db::cmp(L.schema(), "l_shipdate", db::CmpOp::Eq,
                        std::string("1995-01-17"));

    double conv_joules = 0, bisc_joules = 0;
    env.run([&] {
        const Tick sample_period = 500 * kUsec;
        for (auto mode :
             {db::EngineMode::Conv, db::EngineMode::Biscuit}) {
            bool conv = mode == db::EngineMode::Conv;
            // Lead-in idle, query, lead-out idle (as in Fig. 9).
            PowerSampler sampler(env, host, sample_period);
            Tick t_begin = env.kernel.now();
            env.kernel.sleep(4 * sample_period);
            db::DbStats stats;
            db::scanTable(mdb, L, pred, mode, stats);
            env.kernel.sleep(4 * sample_period);
            // Let the trailing samples fire, then freeze the trace.
            env.kernel.sleep(2 * sample_period);
            sampler.stop();

            double joules = sampler.trace().integral();
            (conv ? conv_joules : bisc_joules) = joules;
            printTrace(conv ? "Conv" : "Biscuit", sampler.trace(),
                       t_begin);
            std::printf("  avg power %.1f W over the window, energy "
                        "%.3f J\n\n",
                        sampler.trace().mean(), joules);
        }
    });

    std::printf("Table VI: overall energy consumption for Query 1\n");
    std::printf("  %-10s %-10s\n", "Conv", "Biscuit");
    std::printf("  %-10.3f %-10.3f (J; paper: 60.5 vs 12.2 kJ at "
                "SF 100)\n",
                conv_joules, bisc_joules);
    std::printf("  ratio: %.1fx less energy with Biscuit (paper: "
                "~5x)\n",
                conv_joules / bisc_joules);
    std::printf("\npaper shape: Biscuit draws *more* instantaneous "
                "power (136 vs 122 W; SSD busy at full internal "
                "bandwidth)\nbut finishes so much sooner that total "
                "energy is ~5x lower.\n");
    return 0;
}
