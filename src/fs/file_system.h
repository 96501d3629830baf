/**
 * @file
 * The SSD-resident file system.
 *
 * Biscuit "prohibits SSDlets from directly using low-level, logical
 * block addresses and forces the SSD to operate under a file system
 * when SSDlets read and write data" (paper §III-D). This module is that
 * file system: a flat-namespace, page-granular extent store mapping
 * paths to logical pages of the FTL. Both the host datapath and
 * device-side File objects resolve offsets through it, so access
 * permissions and data layout are shared by construction.
 */

#ifndef BISCUIT_FS_FILE_SYSTEM_H_
#define BISCUIT_FS_FILE_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ftl/ftl.h"
#include "ssd/device.h"
#include "util/common.h"
#include "util/status.h"

namespace bisc::fs {

/** Outcome of a timed file read. */
struct ReadResult
{
    Tick done = 0;

    /** First media error across the covered pages (OK if all clean). */
    Status status;

    /** Bytes delivered (clamped at EOF). */
    Bytes bytes = 0;

    /** Total ECC re-sense passes charged across the covered pages. */
    std::uint32_t retries = 0;
};

/**
 * Value snapshot of the file system's namespace: every inode's extent
 * list and logical size, plus the logical-page allocator position.
 * Captured by FileSystem::exportImage() and replayed into the fresh
 * file system of a forked device by importImage().
 */
struct FsImage
{
    struct Inode
    {
        std::vector<ftl::Lpn> pages;
        Bytes size = 0;
    };

    std::map<std::string, Inode> inodes;
    std::vector<ftl::Lpn> free_lpns;
    ftl::Lpn next_lpn = 0;
};

class FileSystem
{
  public:
    explicit FileSystem(ssd::SsdDevice &dev);

    Bytes pageSize() const { return page_size_; }

    /** Create an empty file; path must not exist. */
    void create(const std::string &path);

    bool exists(const std::string &path) const
    {
        return inodes_.count(path) != 0;
    }

    /** Delete a file, trimming its pages. Missing path is a no-op. */
    void remove(const std::string &path);

    /** Logical size in bytes; panics when missing. */
    Bytes size(const std::string &path) const;

    /** All paths beginning with @p prefix, sorted. */
    std::vector<std::string> list(const std::string &prefix) const;

    /**
     * Zero-time population for workload setup (creating the file if
     * needed and replacing its contents).
     */
    void populate(const std::string &path, const void *data, Bytes len);

    /**
     * Streamed zero-time population: @p filler is called once per page
     * with (file offset, destination buffer, chunk length). Avoids
     * materializing multi-hundred-MiB datasets twice in host RAM.
     */
    void populateWith(const std::string &path, Bytes total,
                      const std::function<void(Bytes, std::uint8_t *,
                                               Bytes)> &filler);

    /**
     * Timed device-internal read of [offset, offset+len). Pages are
     * fetched in parallel (one request fans out across channels);
     * returns the completion tick of the last page together with the
     * recovery status (recovered pages charge retry latency; an
     * uncorrectable page yields a non-OK status and damaged bytes).
     * Reads past EOF are clamped; @p out may be null for timing-only
     * probes.
     */
    ReadResult read(const std::string &path, Bytes offset, Bytes len,
                    std::uint8_t *out, Tick earliest = 0);

    /**
     * Timed device-internal write, extending the file as needed.
     * Partial-page boundaries incur read-modify-write.
     */
    Tick write(const std::string &path, Bytes offset,
               const std::uint8_t *data, Bytes len);

    /**
     * Grow @p path to at least @p size bytes (zero-time; new pages
     * read as zeros). Used by the host write path to materialize page
     * mappings before issuing NVMe page writes.
     */
    void ensureSize(const std::string &path, Bytes size);

    /**
     * Zero-time functional read (no servers reserved): used by code
     * that models timing separately, e.g. pattern-matched streaming
     * where only match bookkeeping needs the bytes. Clamps at EOF and
     * returns the number of bytes copied.
     */
    Bytes peek(const std::string &path, Bytes offset, Bytes len,
               std::uint8_t *out) const;

    /** Logical page backing byte @p offset; panics when out of range. */
    ftl::Lpn lpnAt(const std::string &path, Bytes offset) const;

    /** The file's page table (for multi-page host commands). */
    const std::vector<ftl::Lpn> &pagesOf(const std::string &path) const;

    ssd::SsdDevice &device() { return dev_; }

    /** Capture the namespace and allocator state as a value image. */
    FsImage exportImage() const;

    /**
     * Replace this file system's state with @p image. Only valid on an
     * empty file system over a device whose FTL holds the image's
     * mappings (i.e., one built from the matching device image).
     */
    void importImage(const FsImage &image);

  private:
    struct Inode
    {
        std::vector<ftl::Lpn> pages;
        Bytes size = 0;
    };

    Inode &inodeOf(const std::string &path);
    const Inode &inodeOf(const std::string &path) const;

    /** Grow @p node so that byte @p upto is backed by a page. */
    void extendTo(Inode &node, Bytes upto);

    ftl::Lpn allocLpn();

    ssd::SsdDevice &dev_;
    Bytes page_size_;
    std::map<std::string, Inode> inodes_;
    std::vector<ftl::Lpn> free_lpns_;
    ftl::Lpn next_lpn_ = 0;

    obs::Counter *reads_ = nullptr;
    obs::Counter *bytes_read_ = nullptr;
};

}  // namespace bisc::fs

#endif  // BISCUIT_FS_FILE_SYSTEM_H_
