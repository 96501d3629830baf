/**
 * @file
 * Copy-volume shim for `scripts/profile.sh --copies`: tallies the
 * bytes each call site moves through memcpy, memmove and memset.
 *
 * The harness is linked with
 * -Wl,--wrap=memcpy,--wrap=memmove,--wrap=memset, so every call from
 * the simulator's own objects (inlined standard-library code included)
 * lands in __wrap_<name>, which counts it under its call stack and
 * then calls the real function. gprof cannot attribute libc time to
 * callers; this names them. A site is the three innermost return
 * addresses above the call, so a copy inside an out-of-line
 * std::vector member is told apart by who called that member. Calls
 * under kMinBytes are not tallied: they are field-sized copies, not
 * data movement.
 *
 * At exit the table is written to the file named by
 * BISCUIT_COPIES_OUT, one "<kind> <calls> <bytes> <addr>..." line per
 * site. The table is a fixed array because the shim must not allocate
 * (malloc may itself call memset); the harness runs the simulation on
 * one thread, so the counters are plain integers.
 */

#include <execinfo.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

extern "C" {
void *__real_memcpy(void *dst, const void *src, std::size_t n);
void *__real_memmove(void *dst, const void *src, std::size_t n);
void *__real_memset(void *dst, int c, std::size_t n);
}

namespace {

constexpr std::size_t kMinBytes = 256;
constexpr int kDepth = 3;
constexpr unsigned kSlotBits = 15;
constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;

enum Kind { kMemcpy, kMemmove, kMemset, kKinds };
const char *const kKindName[kKinds] = {"memcpy", "memmove", "memset"};

struct Site
{
    Kind kind;
    void *stack[kDepth];
    std::uint64_t calls;
    std::uint64_t bytes;
};

// Open addressing keyed by (kind, stack); calls == 0 marks a free slot.
Site g_sites[kSlots];
std::uint64_t g_dropped = 0;

bool
sameSite(const Site &s, Kind kind, void *const *stack)
{
    if (s.kind != kind)
        return false;
    for (int i = 0; i < kDepth; ++i) {
        if (s.stack[i] != stack[i])
            return false;
    }
    return true;
}

// Out of line so the frames it skips are always the same two: its
// own and the wrapper's.
__attribute__((noinline)) void
tally(Kind kind, std::size_t n)
{
    if (n < kMinBytes)
        return;
    void *frames[2 + kDepth] = {};
    backtrace(frames, 2 + kDepth);
    void *const *stack = frames + 2;

    std::uint64_t h = static_cast<std::uint64_t>(kind);
    for (int i = 0; i < kDepth; ++i)
        h = (h ^ reinterpret_cast<std::uintptr_t>(stack[i])) *
            0x9e3779b97f4a7c15ull;
    h >>= 64 - kSlotBits;
    for (std::size_t probe = 0; probe < kSlots; ++probe) {
        Site &s = g_sites[(h + probe) & (kSlots - 1)];
        if (s.calls == 0) {
            s.kind = kind;
            for (int i = 0; i < kDepth; ++i)
                s.stack[i] = stack[i];
        } else if (!sameSite(s, kind, stack)) {
            continue;
        }
        ++s.calls;
        s.bytes += n;
        return;
    }
    ++g_dropped;
}

// backtrace() loads the unwinder on first use; do that before main.
__attribute__((constructor)) void
warmUp()
{
    void *frame[1];
    backtrace(frame, 1);
}

__attribute__((destructor)) void
writeTally()
{
    const char *path = std::getenv("BISCUIT_COPIES_OUT");
    if (path == nullptr)
        return;
    std::FILE *out = std::fopen(path, "w");
    if (out == nullptr)
        return;
    for (const Site &s : g_sites) {
        if (s.calls == 0)
            continue;
        std::fprintf(out, "%s %llu %llu", kKindName[s.kind],
                     static_cast<unsigned long long>(s.calls),
                     static_cast<unsigned long long>(s.bytes));
        for (void *ret : s.stack)
            std::fprintf(out, " %p", ret);
        std::fputc('\n', out);
    }
    if (g_dropped != 0)
        std::fprintf(out, "dropped %llu 0\n",
                     static_cast<unsigned long long>(g_dropped));
    std::fclose(out);
}

}  // namespace

extern "C" {

void *
__wrap_memcpy(void *dst, const void *src, std::size_t n)
{
    tally(kMemcpy, n);
    return __real_memcpy(dst, src, n);
}

void *
__wrap_memmove(void *dst, const void *src, std::size_t n)
{
    tally(kMemmove, n);
    return __real_memmove(dst, src, n);
}

void *
__wrap_memset(void *dst, int c, std::size_t n)
{
    tally(kMemset, n);
    return __real_memset(dst, c, n);
}

}  // extern "C"
