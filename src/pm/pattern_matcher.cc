#include "pm/pattern_matcher.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/metrics.h"
#include "util/lanes.h"

namespace bisc::pm {

bool
KeySet::addKey(const std::string &key)
{
    if (key.empty() || key.size() > kMaxKeyLength ||
        keys_.size() >= kMaxKeys) {
        return false;
    }
    keys_.push_back(key);
    return true;
}

namespace {

// The two 64-bit words of a Lanes16.
typedef std::uint64_t Words2 __attribute__((vector_size(16)));

/**
 * a[0, m) == b[0, m), eight bytes a compare. Written out rather than
 * calling memcmp: a call in the scan loop makes the compiler spill
 * and reload the key vectors on every 16-byte step.
 */
bool
sameBytes(const std::uint8_t *a, const std::uint8_t *b, std::size_t m)
{
    for (; m >= 8; a += 8, b += 8, m -= 8) {
        std::uint64_t x, y;
        std::memcpy(&x, a, 8);
        std::memcpy(&y, b, 8);
        if (x != y)
            return false;
    }
    for (; m > 0; ++a, ++b, --m) {
        if (*a != *b)
            return false;
    }
    return true;
}

}  // namespace

std::size_t
find(const std::uint8_t *data, std::size_t len, std::string_view key,
     std::size_t from)
{
    static_assert(std::endian::native == std::endian::little,
                  "candidate bit positions assume little-endian lanes");
    constexpr std::size_t npos = std::string_view::npos;
    const std::size_t m = key.size();
    if (m > len || from > len - m)
        return npos;
    if (m == 0)
        return from;
    const auto *k = reinterpret_cast<const std::uint8_t *>(key.data());
    const Lanes16 first = Lanes16{} + k[0];
    const Lanes16 last = Lanes16{} + k[m - 1];

    std::size_t i = from;
    // Candidate starts i..i+15 need bytes up to i + 15 + (m - 1).
    for (; i + 15 + m <= len; i += 16) {
        // One bit per candidate lane: bit 8j + 7 of a word for lane j.
        const Words2 hit =
            reinterpret_cast<Words2>((load16(data + i) == first) &
                                     (load16(data + i + m - 1) == last)) &
            0x8080808080808080ull;
        if ((hit[0] | hit[1]) == 0)
            continue;
        for (std::size_t half = 0; half < 2; ++half) {
            for (std::uint64_t w = hit[half]; w != 0; w &= w - 1) {
                const std::size_t pos =
                    i + 8 * half +
                    static_cast<std::size_t>(std::countr_zero(w)) / 8;
                if (sameBytes(data + pos, k, m))
                    return pos;
            }
        }
    }
    for (; i + m <= len; ++i) {
        if (data[i] == k[0] && sameBytes(data + i, k, m))
            return i;
    }
    return npos;
}

std::uint64_t
count(const std::uint8_t *data, std::size_t len, std::string_view key,
      std::size_t from)
{
    std::uint64_t n = 0;
    for (std::size_t hit = find(data, len, key, from);
         hit != std::string_view::npos; hit = find(data, len, key, hit + 1))
        ++n;
    return n;
}

MatchResult
PatternMatcher::scan(const std::uint8_t *data, std::size_t len,
                     bool counts) const
{
    MatchResult r;
    for (std::size_t i = 0; i < keys_.keys().size(); ++i) {
        const std::size_t off = find(data, len, keys_.keys()[i]);
        if (off != std::string_view::npos) {
            r.any = true;
            r.hit[i] = true;
            r.first_offset[i] = off;
        }
    }
    if (counts)
        countHits(r, data, len);
    noteScan(len, r.any);
    return r;
}

void
PatternMatcher::noteScan(std::size_t len, bool any) const
{
    if (!obs::enabled())
        return;
    ++scans_;
    bytes_scanned_ += len;
    if (any)
        ++matched_scans_;
}

void
PatternMatcher::countHits(MatchResult &r, const std::uint8_t *data,
                          std::size_t len) const
{
    for (std::size_t i = 0; i < keys_.keys().size(); ++i) {
        if (r.hit[i])
            r.count[i] = 1 + count(data, len, keys_.keys()[i],
                                   r.first_offset[i] + 1);
    }
}

std::vector<std::size_t>
PatternMatcher::findAll(const std::uint8_t *data, std::size_t len) const
{
    std::vector<std::size_t> hits;
    for (const auto &key : keys_.keys()) {
        for (std::size_t hit = find(data, len, key);
             hit != std::string_view::npos;
             hit = find(data, len, key, hit + 1))
            hits.push_back(hit);
    }
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    return hits;
}

}  // namespace bisc::pm
