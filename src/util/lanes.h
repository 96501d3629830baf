/**
 * @file
 * Sixteen byte lanes for the simulator's byte-scanning kernels
 * (pm::find, host::WordTally): GCC/Clang vector extensions, which
 * compile to SSE2 on x86-64 and NEON on AArch64 with no intrinsics
 * header. Comparing a Lanes16 with a byte gives 0xff in each lane
 * that holds it and 0 elsewhere.
 */

#ifndef BISCUIT_UTIL_LANES_H_
#define BISCUIT_UTIL_LANES_H_

#include <cstdint>
#include <cstring>

namespace bisc {

typedef std::uint8_t Lanes16 __attribute__((vector_size(16)));

/** Sixteen bytes from @p p, which need not be aligned. */
inline Lanes16
load16(const std::uint8_t *p)
{
    Lanes16 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

}  // namespace bisc

#endif  // BISCUIT_UTIL_LANES_H_
