#include "fiber/fiber.h"

#include <exception>

#include "util/log.h"

#ifdef BISCUIT_TSAN
extern "C" {
void *__tsan_get_current_fiber(void);
void *__tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void *fiber);
void __tsan_switch_to_fiber(void *fiber, unsigned flags);
}
#endif

namespace bisc::fiber {

namespace {

/// The fiber currently executing on this thread (nullptr = scheduler).
thread_local Fiber *g_current = nullptr;

/// Handoff slot for the trampoline: set immediately before the first
/// swap into a new fiber's context (single-threaded scheduling makes
/// this safe).
thread_local Fiber *g_starting = nullptr;

}  // namespace

Fiber::Fiber(std::string name, Entry entry, std::size_t stack_size)
    : name_(std::move(name)), entry_(std::move(entry)),
      stack_(new std::uint8_t[stack_size]), stack_size_(stack_size)
{
    BISC_ASSERT(entry_, "fiber '", name_, "' needs an entry function");
    if (getcontext(&ctx_) != 0)
        BISC_PANIC("getcontext failed for fiber '", name_, "'");
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stack_size_;
    ctx_.uc_link = &ret_;
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline),
                0);
#ifdef BISCUIT_TSAN
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
    // A fiber destroyed mid-flight leaks whatever its stack owned; that
    // indicates a scheduler bug except during forced teardown.
    if (started_ && !finished_)
        BISC_WARN("destroying unfinished fiber '", name_, "'");
#ifdef BISCUIT_TSAN
    if (tsan_fiber_ != nullptr)
        __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void
Fiber::resume()
{
    BISC_ASSERT(g_current == nullptr,
                "resume() must be called from the scheduler context");
    BISC_ASSERT(!finished_, "resuming finished fiber '", name_, "'");
    g_current = this;
    if (!started_) {
        started_ = true;
        g_starting = this;
    }
#ifdef BISCUIT_TSAN
    tsan_return_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
    if (swapcontext(&ret_, &ctx_) != 0)
        BISC_PANIC("swapcontext into fiber '", name_, "' failed");
    g_current = nullptr;
}

Fiber *
Fiber::current()
{
    return g_current;
}

void
Fiber::suspendCurrent()
{
    Fiber *self = g_current;
    BISC_ASSERT(self != nullptr, "suspendCurrent() outside any fiber");
#ifdef BISCUIT_TSAN
    __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
    if (swapcontext(&self->ctx_, &self->ret_) != 0)
        BISC_PANIC("swapcontext out of fiber '", self->name_, "' failed");
}

void
Fiber::trampoline()
{
    Fiber *self = g_starting;
    g_starting = nullptr;
    BISC_ASSERT(self != nullptr, "trampoline without a starting fiber");
    try {
        self->entry_();
    } catch (const std::exception &e) {
        BISC_PANIC("uncaught exception in fiber '", self->name_,
                   "': ", e.what());
    } catch (...) {
        BISC_PANIC("uncaught non-std exception in fiber '", self->name_,
                   "'");
    }
    self->finished_ = true;
#ifdef BISCUIT_TSAN
    __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
    // Swap back explicitly rather than returning through uc_link:
    // under TSan the trampoline's instrumented function-exit would
    // otherwise run after the fiber annotation already switched
    // shadow stacks, popping a spurious frame from the scheduler's
    // shadow call stack on every finished fiber. The abandoned
    // trampoline frame dies with the fiber context.
    swapcontext(&self->ctx_, &self->ret_);
    BISC_PANIC("finished fiber '", self->name_, "' resumed");
}

}  // namespace bisc::fiber
