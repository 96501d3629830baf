#include "host/load_gen.h"

#include <charconv>
#include <cstring>

#include "util/rng.h"

namespace bisc::host {

namespace {

const char *const kMethods[] = {"GET", "POST", "PUT", "HEAD"};
const char *const kPaths[] = {
    "/index.html", "/img/logo.png", "/api/v1/items", "/login",
    "/search?q=ssd", "/static/app.js", "/feed.xml", "/about",
};
const char *const kAgents[] = {
    "Mozilla/5.0", "curl/7.38", "Wget/1.16", "spider/2.1",
};

/** Append the decimal digits of @p v to @p out. */
void
appendNumber(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/** Append one synthetic combined-log line for index @p i to @p out. */
void
appendLogLine(std::string &out, std::uint64_t i, Rng &rng,
              const std::string &needle, std::uint32_t needle_period)
{
    out += "10.";
    appendNumber(out, rng.below(256));
    out += '.';
    appendNumber(out, rng.below(256));
    out += '.';
    appendNumber(out, rng.below(256));
    out += " - - [1995-";
    appendNumber(out, 1 + rng.below(12));
    out += '-';
    appendNumber(out, 1 + rng.below(28));
    out += "] \"";
    out += kMethods[rng.below(4)];
    out += ' ';
    out += kPaths[rng.below(8)];
    out += "\" ";
    appendNumber(out, 200 + 100 * rng.below(4));
    out += ' ';
    appendNumber(out, rng.below(100000));
    out += ' ';
    if (needle_period != 0 && i % needle_period == 0)
        out += needle;
    else
        out += kAgents[rng.below(4)];
    out += '\n';
}

}  // namespace

std::uint64_t
generateWebLog(fs::FileSystem &fs, const std::string &path, Bytes total,
               const std::string &needle, std::uint32_t needle_period,
               std::uint64_t seed)
{
    // Generate lines once into a byte budget, tracking how many copies
    // of the needle were planted; stream into the file system page by
    // page to avoid holding the corpus twice.
    Rng rng(seed);
    std::uint64_t planted = 0;
    std::uint64_t line_no = 0;
    std::string pending;

    fs.populateWith(path, total,
                    [&](Bytes off, std::uint8_t *buf, Bytes n) {
                        (void)off;
                        while (pending.size() < n) {
                            if (needle_period != 0 &&
                                line_no % needle_period == 0)
                                ++planted;
                            appendLogLine(pending, line_no++, rng, needle,
                                          needle_period);
                        }
                        std::memcpy(buf, pending.data(), n);
                        pending.erase(0, n);
                    });
    return planted;
}

}  // namespace bisc::host
