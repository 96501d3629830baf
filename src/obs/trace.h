/**
 * @file
 * The tracing half of the observability subsystem: per-lane ring
 * buffers of span/instant events with *simulated-clock* timestamps,
 * exported as Chrome/Perfetto trace_event JSON.
 *
 * Design constraints (OBSERVABILITY.md has the full schema):
 *
 *  - Determinism: timestamps are sim-clock ticks, lane streams are
 *    keyed by a caller-chosen label (not by OS thread identity), and
 *    the exporter orders streams by (label, registration sequence) —
 *    two runs of the same seeded workload emit byte-identical JSON.
 *  - Lock-freedom: each TraceBuffer has exactly one writer (its lane's
 *    thread); pushes are a masked store plus a relaxed index bump.
 *    The only lock in the subsystem guards buffer registration.
 *  - Bounded memory: buffers are fixed-capacity rings that overwrite
 *    the oldest events; the export records how many were dropped.
 */

#ifndef BISCUIT_OBS_TRACE_H_
#define BISCUIT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"

namespace bisc::obs {

/** Sentinel: event carries no numeric argument. */
constexpr std::int64_t kNoArg = INT64_MIN;

/**
 * One trace record. `name` and `cat` must point at storage that
 * outlives the buffer: string literals, or strings interned through
 * TraceBuffer::intern().
 */
struct TraceEvent
{
    Tick ts = 0;        ///< sim-clock start, ns
    Tick dur = 0;       ///< sim-clock duration, ns (0 for instants)
    const char *cat = "";
    const char *name = "";
    std::int64_t arg = kNoArg;
    char phase = 'X';   ///< 'X' complete span, 'i' instant
};

/**
 * A single-writer ring buffer of trace events. The writer is the lane
 * thread that owns the enclosing kernel; snapshots happen only after
 * that thread finished (thread join provides the happens-before), so
 * pushes need no synchronization beyond a relaxed index.
 */
class TraceBuffer
{
  public:
    /** @p capacity is rounded up to a power of two (min 1024). */
    TraceBuffer(std::string label, std::size_t capacity);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    void
    push(const TraceEvent &e)
    {
        std::uint64_t n = next_.load(std::memory_order_relaxed);
        slots_[n & mask_] = e;
        next_.store(n + 1, std::memory_order_relaxed);
    }

    /**
     * Copy a transient string into writer-owned storage and return a
     * stable pointer; repeated interns of the same string share one
     * copy. Writer thread only (same single-writer discipline).
     */
    const char *intern(std::string_view s);

    const std::string &label() const { return label_; }
    std::size_t capacity() const { return slots_.size(); }

    /** Events pushed in total (monotonic, may exceed capacity). */
    std::uint64_t
    pushed() const
    {
        return next_.load(std::memory_order_relaxed);
    }

    /** Events lost to wraparound. */
    std::uint64_t
    dropped() const
    {
        std::uint64_t n = pushed();
        return n > slots_.size() ? n - slots_.size() : 0;
    }

    /** Surviving events, oldest first. Call only after the writer quiesced. */
    std::vector<TraceEvent> snapshot() const;

  private:
    friend class TraceSession;

    std::string label_;
    std::vector<TraceEvent> slots_;
    std::uint64_t mask_;
    std::atomic<std::uint64_t> next_{0};

    /** Interned dynamic names (address-stable). */
    std::deque<std::string> interned_;
    std::map<std::string, const char *, std::less<>> intern_index_;

    /** Registration order, for deterministic tie-breaking. */
    std::uint64_t seq_ = 0;
};

/**
 * Process-wide trace collector. Activated by the BISCUIT_TRACE
 * environment variable (its value is the output path); when active,
 * every sim::Kernel registers a TraceBuffer here at construction and
 * the collected streams are flushed as one Chrome trace_event JSON
 * file at process exit (or by an explicit flush()).
 */
class TraceSession
{
  public:
    static TraceSession &global();

    /** True when BISCUIT_TRACE is set and obs is runtime-enabled. */
    bool active() const { return active_; }

    const std::string &path() const { return path_; }

    /**
     * Create and register a buffer for one lane. @p label keys the
     * stream in the export (see laneLabel() in obs.h). The session
     * keeps the buffer alive until the next flush-and-reset even after
     * the owning kernel is destroyed.
     */
    std::shared_ptr<TraceBuffer> makeBuffer(const std::string &label);

    /** Write the JSON file now. Idempotent; safe with zero buffers. */
    void flush();

    /** Export into an arbitrary stream path (test hook). */
    void writeJson(const std::string &path);

    /**
     * Test hooks: force-activate with an output path, or deactivate
     * and drop all registered buffers.
     */
    void activate(const std::string &path);
    void deactivate();

  private:
    TraceSession();

    mutable std::mutex mu_;
    std::vector<std::shared_ptr<TraceBuffer>> buffers_;
    bool active_ = false;
    std::string path_;
    std::size_t capacity_;  ///< events per buffer (BISCUIT_TRACE_CAP, 2^18)
    std::uint64_t next_seq_ = 0;
};

}  // namespace bisc::obs

#endif  // BISCUIT_OBS_TRACE_H_
