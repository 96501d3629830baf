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
 * under kMinBytes are far more numerous and each moves a row or a
 * field, so a stack walk per call would cost more than the copy: they
 * are tallied apart, by the one address that made the call. Millions
 * of row-sized copies add up to gigabytes, which is why they are
 * counted at all.
 *
 * At exit both tables are written to the file named by
 * BISCUIT_COPIES_OUT, one "<kind> <calls> <bytes> <addr>..." line per
 * stack-walked site and one "small <kind> <calls> <bytes> <addr>" line
 * per small-copy call site. The tables are fixed arrays because the
 * shim must not allocate (malloc may itself call memset); the harness
 * runs the simulation on one thread, so the counters are plain
 * integers.
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
Site g_small[kSlots];  ///< keyed by (kind, caller); stack[1..] null
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

/** Count one call of @p n bytes under (kind, stack) in @p table. */
void
count(Site *table, Kind kind, void *const *stack, std::size_t n)
{
    std::uint64_t h = static_cast<std::uint64_t>(kind);
    for (int i = 0; i < kDepth; ++i)
        h = (h ^ reinterpret_cast<std::uintptr_t>(stack[i])) *
            0x9e3779b97f4a7c15ull;
    h >>= 64 - kSlotBits;
    for (std::size_t probe = 0; probe < kSlots; ++probe) {
        Site &s = table[(h + probe) & (kSlots - 1)];
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

// Out of line so the frames it skips are always the same two: its
// own and the wrapper's. @p caller is the wrapper's return address.
__attribute__((noinline)) void
tally(Kind kind, std::size_t n, void *caller)
{
    if (n < kMinBytes) {
        void *const stack[kDepth] = {caller};
        count(g_small, kind, stack, n);
        return;
    }
    void *frames[2 + kDepth] = {};
    backtrace(frames, 2 + kDepth);
    count(g_sites, kind, frames + 2, n);
}

void
writeTable(std::FILE *out, const Site *table, const char *prefix,
           int depth)
{
    for (std::size_t i = 0; i < kSlots; ++i) {
        const Site &s = table[i];
        if (s.calls == 0)
            continue;
        std::fprintf(out, "%s%s %llu %llu", prefix, kKindName[s.kind],
                     static_cast<unsigned long long>(s.calls),
                     static_cast<unsigned long long>(s.bytes));
        for (int d = 0; d < depth; ++d)
            std::fprintf(out, " %p", s.stack[d]);
        std::fputc('\n', out);
    }
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
    writeTable(out, g_sites, "", kDepth);
    writeTable(out, g_small, "small ", 1);
    if (g_dropped != 0)
        std::fprintf(out, "dropped %llu 0\n",
                     static_cast<unsigned long long>(g_dropped));
    std::fclose(out);
}

}  // namespace

extern "C" {

// noinline keeps __builtin_return_address(0) the copy's call site.
__attribute__((noinline)) void *
__wrap_memcpy(void *dst, const void *src, std::size_t n)
{
    tally(kMemcpy, n, __builtin_return_address(0));
    return __real_memcpy(dst, src, n);
}

__attribute__((noinline)) void *
__wrap_memmove(void *dst, const void *src, std::size_t n)
{
    tally(kMemmove, n, __builtin_return_address(0));
    return __real_memmove(dst, src, n);
}

__attribute__((noinline)) void *
__wrap_memset(void *dst, int c, std::size_t n)
{
    tally(kMemset, n, __builtin_return_address(0));
    return __real_memset(dst, c, n);
}

}  // extern "C"
