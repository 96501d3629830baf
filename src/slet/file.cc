#include "slet/file.h"

#include <algorithm>

#include "runtime/runtime.h"

namespace bisc::slet {

void
File::Async::wait()
{
    BISC_ASSERT(rt_ != nullptr, "wait() on an empty Async token");
    rt_->kernel().sleepUntil(ready_);
}

bool
File::Async::done() const
{
    BISC_ASSERT(rt_ != nullptr, "done() on an empty Async token");
    return rt_->kernel().now() >= ready_;
}

Bytes
File::size() const
{
    return ctx().runtime->fs().size(path_);
}

bool
File::exists() const
{
    return ctx().runtime->fs().exists(path_);
}

Bytes
File::read(Bytes offset, void *buf, Bytes len)
{
    Async a = readAsync(offset, buf, len);
    a.wait();
    BISC_ASSERT(a.status().ok(), "unhandled media error reading '",
                path_, "': ", a.status().toString());
    return a.bytes();
}

Bytes
File::read(Bytes offset, void *buf, Bytes len, Status &status)
{
    Async a = readAsync(offset, buf, len);
    a.wait();
    status = a.status();
    return a.bytes();
}

File::Async
File::readAsync(Bytes offset, void *buf, Bytes len)
{
    const auto &c = ctx();
    auto &fs = c.runtime->fs();
    auto &dev = c.runtime->device();
    auto &kernel = c.runtime->kernel();
    const auto &cfg = c.runtime->config();
    const Bytes page = fs.pageSize();

    Bytes file_size = fs.size(path_);
    if (offset >= file_size)
        return Async(c.runtime, kernel.now(), 0);
    len = std::min(len, file_size - offset);

    // Resolve the extent once, then issue per covered page: a small
    // CPU cost on the application's core, then the flash read
    // pipelined behind it.
    const auto &pages = fs.pagesOf(path_);
    Tick done = kernel.now();
    Status status;
    Bytes covered = 0;
    while (covered < len) {
        Bytes pos = offset + covered;
        Bytes in_page = pos % page;
        Bytes n = std::min(page - in_page, len - covered);
        Tick issued = c.core->reserve(cfg.read_issue_cost);
        std::uint8_t *dst =
            buf == nullptr
                ? nullptr
                : static_cast<std::uint8_t *>(buf) + covered;
        ftl::ReadResult r = dev.internalRead(pages[pos / page],
                                             in_page, n, dst, issued);
        done = std::max(done, r.done);
        if (!r.status.ok() && status.ok())
            status = r.status;
        covered += n;
    }
    return Async(c.runtime, done, len, std::move(status));
}

File::Async
File::scanMatched(Bytes offset, Bytes len, const pm::KeySet &keys,
                  const MatchFn &on_match, bool counts)
{
    const auto &c = ctx();
    auto &fs = c.runtime->fs();
    auto &dev = c.runtime->device();
    auto &kernel = c.runtime->kernel();
    const auto &cfg = c.runtime->config();
    const Bytes page = fs.pageSize();

    Bytes file_size = fs.size(path_);
    if (offset >= file_size)
        return Async(c.runtime, kernel.now(), 0);
    len = std::min(len, file_size - offset);

    const auto &pages = fs.pagesOf(path_);
    Tick done = kernel.now();
    Status status;
    Bytes covered = 0;
    while (covered < len) {
        Bytes pos = offset + covered;
        Bytes in_page = pos % page;
        Bytes n = std::min(page - in_page, len - covered);
        ftl::Lpn lpn = pages[pos / page];
        // IP control on the core precedes the channel stream-through;
        // the page streams by as a zero-copy view.
        Tick ctrl = c.core->reserve(cfg.pm_control_per_page);
        ftl::ReadViewResult rv =
            dev.internalReadView(lpn, in_page, n, ctrl);
        done = std::max(done, rv.done);
        if (!rv.status.ok()) {
            // The stream the matcher saw was garbage: suppress any
            // match on this page and surface the error on the token.
            if (status.ok())
                status = rv.status;
            covered += n;
            continue;
        }

        // Functional match: exactly what the channel IP saw stream by.
        auto r = dev.matchView(lpn, keys, rv.view.data(),
                               rv.view.size(), counts);
        if (r.any)
            on_match(pos, rv.view.data(), rv.view.size(), r);
        covered += n;
    }
    return Async(c.runtime, done, len, std::move(status));
}

File::Async
File::write(Bytes offset, const void *data, Bytes len)
{
    const auto &c = ctx();
    auto &fs = c.runtime->fs();
    if (!fs.exists(path_))
        fs.create(path_);
    Tick done = fs.write(path_, offset,
                         static_cast<const std::uint8_t *>(data), len);
    last_write_ = std::max(last_write_, done);
    return Async(c.runtime, done, len);
}

void
File::flush()
{
    const auto &c = ctx();
    if (last_write_ > c.runtime->kernel().now())
        c.runtime->kernel().sleepUntil(last_write_);
}

}  // namespace bisc::slet
