/**
 * @file
 * Device-side File (paper §III-D).
 *
 * File access APIs mirror the standard library: synchronous and
 * asynchronous reads, asynchronous writes with a synchronous flush.
 * SSDlets never see logical block addresses — every access resolves
 * through the SSD file system, so an SSDlet's access rights are
 * inherited from the host program that passed the File in.
 *
 * The matched-scan API exposes the per-channel hardware pattern
 * matcher: pages stream off flash at channel rate, the IP filters
 * them, and only matching pages are delivered to the SSDlet.
 */

#ifndef BISCUIT_SLET_FILE_H_
#define BISCUIT_SLET_FILE_H_

#include <functional>
#include <string>
#include <vector>

#include "pm/pattern_matcher.h"
#include "runtime/ssdlet_base.h"
#include "util/common.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bisc::slet {

class File
{
  public:
    /** Completion token of an asynchronous operation. */
    class Async
    {
      public:
        Async() = default;
        Async(rt::Runtime *rt, Tick ready, Bytes bytes,
              Status status = Status())
            : rt_(rt), ready_(ready), bytes_(bytes),
              status_(std::move(status))
        {}

        /** Block the fiber until the operation completes. */
        void wait();

        /** True once the device has completed the operation. */
        bool done() const;

        Bytes bytes() const { return bytes_; }

        /**
         * Recovery status of the operation: OK for clean or
         * transparently recovered reads (retry latency already
         * charged), non-OK when the media gave up — in which case the
         * buffer holds damaged bytes that must not be used.
         */
        const Status &status() const { return status_; }

      private:
        rt::Runtime *rt_ = nullptr;
        Tick ready_ = 0;
        Bytes bytes_ = 0;
        Status status_;
    };

    File() = default;

    /** Refer to @p path; usable once bound to a device context. */
    explicit File(std::string path) : path_(std::move(path)) {}

    const std::string &path() const { return path_; }

    /** True once the runtime bound this File to the device. */
    bool bound() const { return ctx_.runtime != nullptr; }

    Bytes size() const;
    bool exists() const;

    /**
     * Synchronous read: blocks the fiber until the bytes are in
     * device memory. Returns bytes actually read (clamped at EOF).
     * Panics on an uncorrectable media error; use the Status overload
     * to handle errors in SSDlet code.
     */
    Bytes read(Bytes offset, void *buf, Bytes len);

    /**
     * Synchronous read reporting media errors instead of panicking:
     * @p status receives OK (clean or transparently recovered read)
     * or the typed error, in which case the buffer contents must be
     * discarded.
     */
    Bytes read(Bytes offset, void *buf, Bytes len, Status &status);

    /**
     * Asynchronous read: issues the request (charging per-page issue
     * cost on the core) and returns immediately. Data is valid after
     * wait(). @p buf may be null for timing-only probes.
     */
    Async readAsync(Bytes offset, void *buf, Bytes len);

    /** A matched page: file offset, bytes, length, the verdict. */
    using MatchFn = std::function<void(Bytes, const std::uint8_t *, Bytes,
                                       const pm::MatchResult &)>;

    /**
     * Hardware-matched streaming scan of [offset, offset+len):
     * configures the channel matchers with @p keys and streams pages;
     * @p on_match is invoked for each page containing any key, with
     * the page's file offset, its bytes, their length and the
     * matcher's verdict on them (which keys hit and where first;
     * firstHit() is the least offset, before which no key occurs).
     * With @p counts the verdict also carries each key's occurrences
     * in the page. The bytes are a zero-copy view of the streamed
     * page — valid only for the duration of the callback; copy out
     * anything kept longer. Returns the completion token of the whole
     * scan. The per-page IP control cost on the device core is what
     * caps PM bandwidth below raw internal bandwidth (Fig. 7).
     */
    Async scanMatched(Bytes offset, Bytes len, const pm::KeySet &keys,
                      const MatchFn &on_match, bool counts = false);

    /** Asynchronous write; pair with flush() for durability. */
    Async write(Bytes offset, const void *data, Bytes len);

    /** Block until every write issued through this File completed. */
    void flush();

    /** Runtime hook: attach the device context. */
    void bindContext(const rt::DeviceContext &ctx) { ctx_ = ctx; }

  private:
    const rt::DeviceContext &
    ctx() const
    {
        BISC_ASSERT(ctx_.runtime != nullptr, "File '", path_,
                    "' used before the runtime bound it");
        return ctx_;
    }

    std::string path_;
    rt::DeviceContext ctx_{};
    Tick last_write_ = 0;
};

}  // namespace bisc::slet

namespace bisc {

/** Files cross ports/arguments as their path string. */
template <>
struct Wire<slet::File>
{
    static void
    put(Packet &p, const slet::File &f)
    {
        p.putString(f.path());
    }

    static void
    get(Packet &p, slet::File &f)
    {
        f = slet::File(p.getString());
    }
};

namespace rt {

template <>
struct ContextBinder<slet::File>
{
    static void
    bind(slet::File &f, const DeviceContext &ctx)
    {
        f.bindContext(ctx);
    }
};

template <>
struct ContextBinder<std::vector<slet::File>>
{
    static void
    bind(std::vector<slet::File> &fs, const DeviceContext &ctx)
    {
        for (auto &f : fs)
            f.bindContext(ctx);
    }
};

}  // namespace rt
}  // namespace bisc

#endif  // BISCUIT_SLET_FILE_H_
