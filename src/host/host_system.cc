#include "host/host_system.h"

#include <algorithm>
#include <vector>

namespace bisc::host {

HostSystem::HostSystem(sisc::DriveArray &array, const HostConfig &cfg)
    : kernel_(array.kernel()), array_(array), cfg_(cfg),
      cpu_(array.kernel(), "hostcpu"),
      active_streams_(array.driveCount(), 0)
{}

void
HostSystem::setLoadThreads(std::uint32_t n)
{
    BISC_ASSERT(n <= cfg_.hw_threads, "load threads exceed hardware (",
                n, " > ", cfg_.hw_threads, ")");
    load_threads_ = n;
    cpu_.setSpeedFactor(contentionFactor());
}

double
HostSystem::contentionFactor() const
{
    return 1.0 + cfg_.contention_per_thread *
                     static_cast<double>(load_threads_);
}

void
HostSystem::consumeCpu(Tick work)
{
    cpu_.compute(work);  // server speed factor applies contention
}

void
HostSystem::consumeCpuPerByte(Bytes bytes, double ns_per_byte)
{
    consumeCpu(static_cast<Tick>(static_cast<double>(bytes) *
                                     ns_per_byte +
                                 0.5));
}

Bytes
HostSystem::pread(std::uint32_t drive, const std::string &path,
                  Bytes offset, void *buf, Bytes len)
{
    ssd::SsdDevice &dev = deviceOf(drive);
    fs::FileSystem &fs = fsOf(drive);
    Bytes file_size = fs.size(path);
    if (offset >= file_size)
        return 0;
    len = std::min(len, file_size - offset);

    const Bytes page = fs.pageSize();
    const auto &table = fs.pagesOf(path);

    // The conventional path's driver/completion CPU is already part
    // of the modeled NVMe latency; under memory load that CPU slice
    // stretches, so charge only the *excess* here.
    double excess = contentionFactor() - 1.0;
    if (excess > 0) {
        kernel_.sleep(static_cast<Tick>(
            static_cast<double>(cfg_.io_request_cpu +
                                cfg_.io_cpu_portion) *
            excess));
    }
    Tick done;
    if (offset / page == (offset + len - 1) / page) {
        // Single-page request: transfer only the requested bytes
        // (this is the 4 KiB read of paper Table III).
        done = dev.hostRead(table[offset / page], offset % page, len,
                            nullptr);
    } else {
        std::vector<ftl::Lpn> pages;
        for (Bytes p = offset / page; p <= (offset + len - 1) / page;
             ++p)
            pages.push_back(table[p]);
        done = dev.hostReadPages(pages, nullptr);
    }
    kernel_.sleepUntil(done);

    if (buf != nullptr)
        fs.peek(path, offset, len, static_cast<std::uint8_t *>(buf));
    return len;
}

void
HostSystem::streamRead(std::uint32_t drive, const std::string &path,
                       Bytes offset, Bytes len, Bytes window,
                       const StreamFn &on_window)
{
    ssd::SsdDevice &dev = deviceOf(drive);
    fs::FileSystem &fs = fsOf(drive);
    const auto &table = fs.pagesOf(path);
    streamReadTimed(drive, path, offset, len, window,
                    [&](Bytes off, Bytes n) {
                        on_window(off, n,
                                  StreamPages(dev, table, fs.pageSize(),
                                              off, off + n));
                    });
}

HostSystem::StreamScope::StreamScope(HostSystem &host,
                                     std::uint32_t drive)
    : host_(host), drive_(drive)
{
    ++host_.active_streams_[drive_];
}

HostSystem::StreamScope::~StreamScope()
{
    --host_.active_streams_[drive_];
}

void
HostSystem::streamReadTimed(
    std::uint32_t drive, const std::string &path, Bytes offset,
    Bytes len, Bytes window,
    const std::function<void(Bytes, Bytes)> &on_window)
{
    StreamScope scope(*this, drive);
    ssd::SsdDevice &dev = deviceOf(drive);
    fs::FileSystem &fs = fsOf(drive);
    Bytes file_size = fs.size(path);
    if (offset >= file_size)
        return;
    len = std::min(len, file_size - offset);

    const Bytes page = fs.pageSize();
    const auto &table = fs.pagesOf(path);
    std::vector<ftl::Lpn> pages;  // reused across windows

    // Readahead pipeline (double buffering): the NVMe command for
    // window i+1 is in flight while the caller chews on window i, so
    // the caller blocks only when compute outruns the device.
    auto issue = [&](Bytes start) -> Tick {
        Bytes n = std::min(window, len - start);
        Bytes lo = (offset + start) / page;
        Bytes hi = (offset + start + n - 1) / page;
        pages.clear();
        for (Bytes p = lo; p <= hi; ++p)
            pages.push_back(table[p]);
        consumeCpu(cfg_.io_request_cpu);
        return dev.hostReadPages(pages, nullptr);
    };

    Tick ready = issue(0);
    for (Bytes pos = 0; pos < len; pos += window) {
        Tick next_ready = 0;
        if (pos + window < len)
            next_ready = issue(pos + window);
        if (ready > kernel_.now())
            kernel_.sleepUntil(ready);
        Bytes n = std::min(window, len - pos);
        on_window(offset + pos, n);
        ready = next_ready;
    }
}

}  // namespace bisc::host
