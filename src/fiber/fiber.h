/**
 * @file
 * Stackful cooperative fibers (paper §IV-B, "Cooperative
 * Multithreading").
 *
 * Each SSDlet instance is assigned a fiber; context switches happen only
 * at explicit yield points or blocking I/O calls, which is what makes
 * lock-free port sharing legal on a single device core. This
 * implementation uses POSIX ucontext on a private stack; the simulation
 * kernel (src/sim) is the only scheduler.
 */

#ifndef BISCUIT_FIBER_FIBER_H_
#define BISCUIT_FIBER_FIBER_H_

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

// ThreadSanitizer must be told about ucontext switches (it tracks one
// stack per OS thread otherwise). The annotations are compiled in only
// under TSan builds and cost nothing elsewhere.
#if defined(__SANITIZE_THREAD__)
#define BISCUIT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BISCUIT_TSAN 1
#endif
#endif

namespace bisc::fiber {

/**
 * A single cooperatively scheduled execution context.
 *
 * A Fiber runs its entry function on a dedicated stack. resume() must be
 * called from the scheduler context; the fiber runs until it calls
 * suspendCurrent() or its entry function returns. Fibers are neither
 * copyable nor movable (the stack address is baked into the context).
 */
class Fiber
{
  public:
    using Entry = std::function<void()>;

    /** Default fiber stack size (generous; host-process memory). */
    static constexpr std::size_t kDefaultStackSize = 512 * 1024;

    Fiber(std::string name, Entry entry,
          std::size_t stack_size = kDefaultStackSize);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Human-readable name for diagnostics. */
    const std::string &name() const { return name_; }

    /** True once the entry function has returned. */
    bool finished() const { return finished_; }

    /**
     * Switch from the scheduler into this fiber. Returns when the fiber
     * suspends or finishes. Panics if called on a finished fiber or
     * from inside any fiber.
     */
    void resume();

    /** The fiber currently executing, or nullptr in scheduler context. */
    static Fiber *current();

    /**
     * Suspend the currently running fiber and return control to the
     * scheduler (the resume() caller). Panics outside fiber context.
     */
    static void suspendCurrent();

  private:
    static void trampoline();

    std::string name_;
    Entry entry_;
    /**
     * Left uninitialized: a zero fill of every spawned fiber's stack
     * is pure overhead (the fiber writes what it uses).
     */
    std::unique_ptr<std::uint8_t[]> stack_;
    std::size_t stack_size_;
    ucontext_t ctx_;
    ucontext_t ret_;
    bool started_ = false;
    bool finished_ = false;
#ifdef BISCUIT_TSAN
    /** TSan's shadow context for this fiber's stack. */
    void *tsan_fiber_ = nullptr;

    /** TSan context to restore when this fiber suspends/finishes. */
    void *tsan_return_ = nullptr;
#endif
};

}  // namespace bisc::fiber

#endif  // BISCUIT_FIBER_FIBER_H_
