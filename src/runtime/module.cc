#include "runtime/module.h"

#include <cstring>

#include "fs/file_system.h"
#include "util/log.h"

namespace bisc::rt {

ModuleRegistry &
ModuleRegistry::global()
{
    static ModuleRegistry registry;
    return registry;
}

void
ModuleRegistry::registerSsdlet(const std::string &module,
                               const std::string &id, Bytes code_bytes,
                               SsdletFactory factory)
{
    ModuleImage &img = modules_[module];
    img.name = module;
    BISC_ASSERT(img.factories.count(id) == 0, "duplicate SSDlet id '",
                id, "' in module '", module, "'");
    img.factories.emplace(id, std::move(factory));
    img.ssdlet_bytes.emplace(id, code_bytes);
}

void
ModuleRegistry::declareModule(const std::string &module,
                              Bytes image_bytes)
{
    ModuleImage &img = modules_[module];
    img.name = module;
    BISC_ASSERT(img.image_bytes == 0, "module '", module,
                "' declared twice");
    BISC_ASSERT(image_bytes > 0, "module '", module,
                "' declared with no bytes");
    img.image_bytes = image_bytes;
}

const ModuleImage *
ModuleRegistry::find(const std::string &module) const
{
    auto it = modules_.find(module);
    return it == modules_.end() ? nullptr : &it->second;
}

std::vector<std::string>
ModuleRegistry::moduleNames() const
{
    std::vector<std::string> names;
    names.reserve(modules_.size());
    for (const auto &[name, img] : modules_)
        names.push_back(name);
    return names;
}

void
ModuleRegistry::installModuleFile(fs::FileSystem &fs,
                                  const std::string &path,
                                  const std::string &module) const
{
    const ModuleImage *img = find(module);
    BISC_ASSERT(img != nullptr, "unknown module '", module, "'");
    BISC_ASSERT(img->image_bytes > 0, "module '", module,
                "' has no declared size (DeclareModule)");
    std::string header = std::string(kSletMagic) + module + "\n";
    Bytes total = std::max<Bytes>(img->image_bytes, header.size());
    fs.populateWith(path, total,
                    [&header](Bytes off, std::uint8_t *buf, Bytes n) {
                        for (Bytes i = 0; i < n; ++i) {
                            Bytes pos = off + i;
                            buf[i] = pos < header.size()
                                         ? static_cast<std::uint8_t>(
                                               header[pos])
                                         : std::uint8_t{0xB5};
                        }
                    });
}

std::string
ModuleRegistry::parseHeader(const std::uint8_t *data, std::size_t len)
{
    std::size_t magic_len = std::strlen(kSletMagic);
    if (len < magic_len ||
        std::memcmp(data, kSletMagic, magic_len) != 0) {
        return "";
    }
    std::string name;
    for (std::size_t i = magic_len; i < len && data[i] != '\n'; ++i)
        name.push_back(static_cast<char>(data[i]));
    return name;
}

}  // namespace bisc::rt
