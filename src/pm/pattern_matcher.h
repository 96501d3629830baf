/**
 * @file
 * The per-channel hardware pattern matcher (paper §IV-A, §V-A).
 *
 * The target SSD places one key-based matcher on every flash channel:
 * given at most three keywords of up to 16 bytes each, the IP inspects
 * data streaming off the channel at full channel throughput. Biscuit
 * SSDlets enable it on large reads so that only matching data ever
 * reaches the device CPUs (let alone the host).
 *
 * Functional model: literal multi-keyword byte search over a data
 * window. Timing model: matching itself is free (it rides the channel
 * transfer); the *software control* of the IP costs device-CPU time per
 * request, which is why measured PM bandwidth sits below raw internal
 * bandwidth (Fig. 7).
 */

#ifndef BISCUIT_PM_PATTERN_MATCHER_H_
#define BISCUIT_PM_PATTERN_MATCHER_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bisc::pm {

/**
 * The one substring search of the simulator: the first occurrence of
 * @p key in data[@p from, @p len), or std::string_view::npos. Tests
 * the key's first and last bytes at 16 offsets per step and confirms
 * each candidate byte for byte. The channel matcher, the device grep SSDlet
 * and the host's grep all count with it, so their answers can differ
 * only in what bytes each one sees. An empty key matches at @p from.
 */
std::size_t find(const std::uint8_t *data, std::size_t len,
                 std::string_view key, std::size_t from = 0);

/** Occurrences of @p key in data[@p from, @p len), overlapping ones
 *  included (the search resumes one byte past each hit). */
std::uint64_t count(const std::uint8_t *data, std::size_t len,
                    std::string_view key, std::size_t from = 0);

/** Hardware limits of the matcher IP. */
constexpr std::size_t kMaxKeys = 3;
constexpr std::size_t kMaxKeyLength = 16;

/**
 * A matcher configuration: up to kMaxKeys literal keys. Configurations
 * are value types; the runtime ships them to channels as part of a
 * matched-read command.
 */
class KeySet
{
  public:
    KeySet() = default;

    /**
     * Add a literal key. Returns false (and ignores the key) if the
     * key violates the hardware limits: empty, longer than 16 bytes,
     * or a fourth key.
     */
    bool addKey(const std::string &key);

    std::size_t size() const { return keys_.size(); }
    bool empty() const { return keys_.empty(); }

    const std::vector<std::string> &keys() const { return keys_; }

  private:
    std::vector<std::string> keys_;
};

/**
 * Match results for one scanned window: which keys hit, where the
 * first hit per key is and, when the scan was asked for them, how
 * often each key occurs.
 */
struct MatchResult
{
    bool any = false;
    std::array<bool, kMaxKeys> hit{};
    std::array<std::size_t, kMaxKeys> first_offset{};

    /**
     * Occurrences of each key in the window, overlapping ones
     * included, counted from its first hit (none occur before it).
     * Zero for a key that missed, and for every key unless the scan
     * asked for counts.
     */
    std::array<std::uint64_t, kMaxKeys> count{};

    /** The least first_offset over the keys that hit (any only). */
    std::size_t
    firstHit() const
    {
        std::size_t first = std::string_view::npos;
        for (std::size_t i = 0; i < kMaxKeys; ++i) {
            if (hit[i] && first_offset[i] < first)
                first = first_offset[i];
        }
        return first;
    }
};

/**
 * One channel's matcher IP. Stateless between scans except for the
 * loaded key set; scan() inspects a byte window exactly as the hardware
 * sees page data streaming by.
 */
class PatternMatcher
{
  public:
    /**
     * Load a key set into the IP registers. Reloading the keys already
     * resident is free: per-page scan loops configure every page, and
     * the compare avoids re-copying the key strings each time.
     */
    void
    configure(const KeySet &keys)
    {
        if (keys_.keys() == keys.keys())
            return;
        keys_ = keys;
    }

    const KeySet &keySet() const { return keys_; }

    /**
     * Scan a window; OR-semantics across keys (any key may hit). With
     * @p counts, also count each hitting key's occurrences (the
     * device software's tally, not part of the IP's verdict).
     */
    MatchResult scan(const std::uint8_t *data, std::size_t len,
                     bool counts = false) const;

    /**
     * Fill @p r's counts for the window @p r was scanned from, counting
     * each hitting key from its first hit. Not a scan: the obs
     * counters do not move.
     */
    void countHits(MatchResult &r, const std::uint8_t *data,
                   std::size_t len) const;

    /**
     * Account one scan of @p len bytes whose verdict was @p any
     * without searching: the device's memo already holds the verdict
     * for these exact bytes, and the IP still streamed them.
     */
    void noteScan(std::size_t len, bool any) const;

    // ----- Observability (aggregated per-device by exportStats) -----

    /** Windows scanned through this IP. */
    std::uint64_t scans() const { return scans_; }

    /** Bytes streamed past this IP's comparators. */
    std::uint64_t bytesScanned() const { return bytes_scanned_; }

    /** Scans where at least one key hit. */
    std::uint64_t matchedScans() const { return matched_scans_; }

    /** Convenience: true when any configured key occurs in the window. */
    bool
    matches(const std::uint8_t *data, std::size_t len) const
    {
        return scan(data, len).any;
    }

    /**
     * Find all match offsets of any key in the window (used by
     * record-oriented scans to locate candidate rows).
     */
    std::vector<std::size_t> findAll(const std::uint8_t *data,
                                     std::size_t len) const;

  private:
    KeySet keys_;

    // Mutable so const scan paths can account for themselves; purely
    // observational (never feeds back into match results or timing).
    mutable std::uint64_t scans_ = 0;
    mutable std::uint64_t bytes_scanned_ = 0;
    mutable std::uint64_t matched_scans_ = 0;
};

}  // namespace bisc::pm

#endif  // BISCUIT_PM_PATTERN_MATCHER_H_
