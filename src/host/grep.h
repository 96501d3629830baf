/**
 * @file
 * Simple string search (paper §V-C, Table V): Linux grep on the host
 * versus an NDP grep SSDlet that leans on the per-channel hardware
 * pattern matcher. Both count with pm::find, the simulator's one
 * substring kernel; the host's CPU charge models grep's Boyer-Moore.
 */

#ifndef BISCUIT_HOST_GREP_H_
#define BISCUIT_HOST_GREP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "host/host_system.h"
#include "runtime/runtime.h"
#include "util/common.h"

namespace bisc::host {

struct GrepResult
{
    std::uint64_t matches = 0;
    Bytes bytes_scanned = 0;
    Tick elapsed = 0;
};

/**
 * Conventional grep: stream the file off drive @p drive to the host
 * with OS readahead and scan it on a host core at grep's Boyer-Moore
 * rate. Degrades under background memory load.
 */
GrepResult grepConv(HostSystem &host, std::uint32_t drive,
                    const std::string &path, const std::string &pattern);

/**
 * NDP grep: load the grep SSDlet, stream the file through the
 * per-channel pattern matchers and count occurrences on the device;
 * only the final count crosses the host interface. Loads and unloads
 * the grep module around the search — the one-shot benchmark shape.
 */
GrepResult grepBiscuit(rt::Runtime &runtime, const std::string &path,
                       const std::string &pattern);

/**
 * NDP grep against an already-resident grep module @p mid (loaded
 * once via rt::Runtime::loadModule and kept hot): only instantiation
 * and the scan itself are charged. The serving tier uses this shape —
 * a shared drive keeps its offload modules loaded across requests
 * instead of paying the load/relocate cost per call.
 */
GrepResult grepBiscuitResident(rt::Runtime &runtime, rt::ModuleId mid,
                               const std::string &path,
                               const std::string &pattern);

/** Install the grep .slet file on @p fs if absent (zero time). */
void installGrepModule(fs::FileSystem &fs);

struct WordCountResult
{
    std::uint64_t words = 0;
    std::uint64_t lines = 0;
    Bytes bytes_scanned = 0;
    Tick elapsed = 0;
};

/**
 * Running word and line tallies of a byte stream scanned in chunks: a
 * word starts at each non-space byte that follows a space (' ', '\n',
 * '\t', '\r') or the start of the stream, and every '\n' ends a line.
 * @p in_word carries the word state across chunk seams.
 */
struct WordTally
{
    std::uint64_t words = 0;
    std::uint64_t lines = 0;
    bool in_word = false;

    /** Add the next @p len bytes of the stream (16 bytes a step). */
    void scan(const std::uint8_t *data, std::size_t len);
};

/**
 * Host-side word count over one file of drive @p drive: stream the
 * file with OS readahead and tally whitespace-delimited words and
 * newlines on a host core. The streaming-analytics member of the
 * serving mix's conventional (non-offloaded) jobs.
 */
WordCountResult wordCount(HostSystem &host, std::uint32_t drive,
                          const std::string &path);

}  // namespace bisc::host

#endif  // BISCUIT_HOST_GREP_H_
