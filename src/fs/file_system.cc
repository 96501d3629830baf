#include "fs/file_system.h"

#include <algorithm>
#include <cstring>

#include "util/log.h"

namespace bisc::fs {

FileSystem::FileSystem(ssd::SsdDevice &dev)
    : dev_(dev), page_size_(dev.config().geometry.page_size)
{
    auto &reg = dev_.kernel().obs().metrics();
    reads_ = &reg.counter("fs.reads", "reads");
    bytes_read_ = &reg.counter("fs.bytes_read", "B");
}

void
FileSystem::create(const std::string &path)
{
    BISC_ASSERT(!exists(path), "create on existing path: ", path);
    inodes_.emplace(path, Inode{});
}

void
FileSystem::remove(const std::string &path)
{
    auto it = inodes_.find(path);
    if (it == inodes_.end())
        return;
    for (ftl::Lpn lpn : it->second.pages) {
        dev_.ftl().trim(lpn);
        free_lpns_.push_back(lpn);
    }
    inodes_.erase(it);
}

Bytes
FileSystem::size(const std::string &path) const
{
    return inodeOf(path).size;
}

std::vector<std::string>
FileSystem::list(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (const auto &[path, node] : inodes_) {
        if (path.compare(0, prefix.size(), prefix) == 0)
            out.push_back(path);
    }
    return out;
}

void
FileSystem::populate(const std::string &path, const void *data, Bytes len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    populateWith(path, len, [p](Bytes off, std::uint8_t *buf, Bytes n) {
        std::memcpy(buf, p + off, n);
    });
}

void
FileSystem::populateWith(
    const std::string &path, Bytes total,
    const std::function<void(Bytes, std::uint8_t *, Bytes)> &filler)
{
    if (exists(path))
        remove(path);
    create(path);
    Inode &node = inodeOf(path);
    std::vector<std::uint8_t> buf(page_size_);
    for (Bytes off = 0; off < total; off += page_size_) {
        Bytes n = std::min(page_size_, total - off);
        std::fill(buf.begin(), buf.end(), 0);
        filler(off, buf.data(), n);
        ftl::Lpn lpn = allocLpn();
        dev_.ftl().install(lpn, buf.data(), page_size_);
        node.pages.push_back(lpn);
    }
    node.size = total;
}

ReadResult
FileSystem::read(const std::string &path, Bytes offset, Bytes len,
                 std::uint8_t *out, Tick earliest)
{
    ReadResult r;
    const Inode &node = inodeOf(path);
    OBS_COUNT(*reads_);
    if (offset >= node.size) {
        r.done = std::max(earliest, dev_.kernel().now());
        return r;
    }
    len = std::min(len, node.size - offset);
    OBS_COUNT(*bytes_read_, len);

    r.done = earliest;
    auto &ftl = dev_.ftl();
    Bytes copied = 0;
    while (copied < len) {
        Bytes pos = offset + copied;
        Bytes page_idx = pos / page_size_;
        Bytes in_page = pos % page_size_;
        std::uint8_t *dst = out == nullptr ? nullptr : out + copied;
        if (in_page == 0 && len - copied >= page_size_) {
            // Maximal run of whole pages: one vectored FTL command
            // fanning out across the channels (timing and status are
            // identical to per-page commands issued in this order).
            std::size_t n_pages = (len - copied) / page_size_;
            ftl::BatchReadResult br = ftl.readPages(
                &node.pages[page_idx], n_pages, dst, earliest);
            r.done = std::max(r.done, br.done);
            r.retries += br.retries;
            if (!br.status.ok() && r.status.ok())
                r.status = br.status;
            copied += n_pages * page_size_;
            continue;
        }
        Bytes n = std::min(page_size_ - in_page, len - copied);
        ftl::ReadResult pr =
            ftl.read(node.pages[page_idx], in_page, n, dst, earliest);
        r.done = std::max(r.done, pr.done);
        r.retries += pr.retries;
        if (!pr.status.ok() && r.status.ok())
            r.status = pr.status;
        copied += n;
    }
    r.bytes = copied;
    return r;
}

Tick
FileSystem::write(const std::string &path, Bytes offset,
                  const std::uint8_t *data, Bytes len)
{
    Inode &node = inodeOf(path);
    if (len == 0)
        return dev_.kernel().now();
    extendTo(node, offset + len - 1);

    Tick done = dev_.kernel().now();
    sim::PageRef buf;  // RMW staging, pooled, acquired on first use
    Bytes written = 0;
    while (written < len) {
        Bytes pos = offset + written;
        Bytes page_idx = pos / page_size_;
        Bytes in_page = pos % page_size_;
        Bytes n = std::min(page_size_ - in_page, len - written);
        ftl::Lpn lpn = node.pages[page_idx];
        if (n == page_size_) {
            done = std::max(done,
                            dev_.internalWrite(lpn, data + written, n));
        } else {
            // Read-modify-write for partial pages.
            if (!buf)
                buf = dev_.nand().bufferPool().acquire();
            ftl::ReadResult r =
                dev_.internalRead(lpn, 0, page_size_, buf.data());
            BISC_ASSERT(r.status.ok(), "unhandled media error in "
                        "read-modify-write of '", path, "': ",
                        r.status.toString());
            std::memcpy(buf.data() + in_page, data + written, n);
            done = std::max(
                done, dev_.internalWrite(lpn, buf.data(), page_size_));
        }
        written += n;
    }
    node.size = std::max(node.size, offset + len);
    return done;
}

void
FileSystem::ensureSize(const std::string &path, Bytes size)
{
    Inode &node = inodeOf(path);
    if (size == 0)
        return;
    extendTo(node, size - 1);
    node.size = std::max(node.size, size);
}

Bytes
FileSystem::peek(const std::string &path, Bytes offset, Bytes len,
                 std::uint8_t *out) const
{
    const Inode &node = inodeOf(path);
    if (offset >= node.size)
        return 0;
    len = std::min(len, node.size - offset);

    auto &ftl = dev_.ftl();
    auto &nand = dev_.nand();
    Bytes copied = 0;
    while (copied < len) {
        Bytes pos = offset + copied;
        Bytes page_idx = pos / page_size_;
        Bytes in_page = pos % page_size_;
        Bytes n = std::min(page_size_ - in_page, len - copied);
        ftl::Lpn lpn = node.pages[page_idx];
        const auto *page =
            ftl.isMapped(lpn) ? nand.peekPage(ftl.physicalOf(lpn))
                              : nullptr;
        Bytes avail = 0;
        if (page != nullptr && page->size() > in_page)
            avail = page->size() - in_page;
        Bytes m = std::min(n, avail);
        if (m > 0)
            std::memcpy(out + copied, page->data() + in_page, m);
        if (m < n)
            std::memset(out + copied + m, 0, n - m);
        copied += n;
    }
    return copied;
}

ftl::Lpn
FileSystem::lpnAt(const std::string &path, Bytes offset) const
{
    const Inode &node = inodeOf(path);
    BISC_ASSERT(offset < node.size, "offset past EOF: ", offset,
                " in ", path);
    return node.pages[offset / page_size_];
}

const std::vector<ftl::Lpn> &
FileSystem::pagesOf(const std::string &path) const
{
    return inodeOf(path).pages;
}

FileSystem::Inode &
FileSystem::inodeOf(const std::string &path)
{
    auto it = inodes_.find(path);
    BISC_ASSERT(it != inodes_.end(), "no such file: ", path);
    return it->second;
}

const FileSystem::Inode &
FileSystem::inodeOf(const std::string &path) const
{
    auto it = inodes_.find(path);
    BISC_ASSERT(it != inodes_.end(), "no such file: ", path);
    return it->second;
}

void
FileSystem::extendTo(Inode &node, Bytes upto)
{
    Bytes pages_needed = upto / page_size_ + 1;
    while (node.pages.size() < pages_needed)
        node.pages.push_back(allocLpn());
}

ftl::Lpn
FileSystem::allocLpn()
{
    if (!free_lpns_.empty()) {
        ftl::Lpn lpn = free_lpns_.back();
        free_lpns_.pop_back();
        return lpn;
    }
    BISC_ASSERT(next_lpn_ < dev_.ftl().logicalPages(),
                "file system out of space");
    return next_lpn_++;
}

FsImage
FileSystem::exportImage() const
{
    FsImage image;
    for (const auto &[path, node] : inodes_) {
        FsImage::Inode n;
        n.pages = node.pages;
        n.size = node.size;
        image.inodes.emplace(path, std::move(n));
    }
    image.free_lpns = free_lpns_;
    image.next_lpn = next_lpn_;
    return image;
}

void
FileSystem::importImage(const FsImage &image)
{
    BISC_ASSERT(inodes_.empty() && next_lpn_ == 0,
                "importImage requires an empty file system");
    for (const auto &[path, node] : image.inodes) {
        Inode n;
        n.pages = node.pages;
        n.size = node.size;
        inodes_.emplace(path, std::move(n));
    }
    free_lpns_ = image.free_lpns;
    next_lpn_ = image.next_lpn;
}

}  // namespace bisc::fs
