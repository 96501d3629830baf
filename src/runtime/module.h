/**
 * @file
 * SSDlet module images and the global registry.
 *
 * On real hardware a module is an ELF-like .slet binary that the
 * runtime relocates into device memory. Without an ARM target we
 * substitute statically linked *module images*: SSDlet classes
 * register a factory under (module name, ssdlet id) at program start,
 * and a synthesized .slet file on the SSD file system carries the
 * module name in its header. The dynamic-loading *lifecycle* — load a
 * file at run time, pay transfer+relocation cost, instantiate many
 * times, unload and reclaim memory — is preserved exactly
 * (substitution documented in DESIGN.md).
 */

#ifndef BISCUIT_RUNTIME_MODULE_H_
#define BISCUIT_RUNTIME_MODULE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/ssdlet_base.h"
#include "util/common.h"

namespace bisc::fs {
class FileSystem;
}  // namespace bisc::fs

namespace bisc::rt {

using SsdletFactory = std::function<std::unique_ptr<SsdletBase>()>;

/** One registered module: a named bag of SSDlet factories. */
struct ModuleImage
{
    std::string name;
    /** Nominal binary size, declared once per module (DeclareModule):
     *  drives the timed load and the system-memory footprint. */
    Bytes image_bytes = 0;
    std::map<std::string, SsdletFactory> factories;
    /** Per-SSDlet code bytes each instance copies into user memory. */
    std::map<std::string, Bytes> ssdlet_bytes;
};

/** File header magic of a synthesized .slet file. */
constexpr const char *kSletMagic = "BISCUIT-SLET:";

class ModuleRegistry
{
  public:
    /** The process-wide registry that RegisterSSDLet populates. */
    static ModuleRegistry &global();

    /**
     * Register an SSDlet class factory. Typically invoked by the
     * RegisterSSDLet macro from a static initializer.
     */
    void registerSsdlet(const std::string &module, const std::string &id,
                        Bytes code_bytes, SsdletFactory factory);

    /**
     * Declare @p module's binary size, once. Typically invoked by the
     * DeclareModule macro from a static initializer; a module must be
     * declared before its .slet file is installed.
     */
    void declareModule(const std::string &module, Bytes image_bytes);

    /** Look up a module by name; nullptr when unknown. */
    const ModuleImage *find(const std::string &module) const;

    std::vector<std::string> moduleNames() const;

    /**
     * Synthesize the on-SSD .slet file for @p module at @p path
     * (header + image-sized payload), so host programs can
     * ssd.loadModule(File(ssd, path)) exactly as in paper Code 3.
     */
    void installModuleFile(fs::FileSystem &fs, const std::string &path,
                           const std::string &module) const;

    /** Parse the module name out of a .slet header; empty on error. */
    static std::string parseHeader(const std::uint8_t *data,
                                   std::size_t len);

  private:
    std::map<std::string, ModuleImage> modules_;
};

}  // namespace bisc::rt

#define BISC_CONCAT_INNER(a, b) a##b
#define BISC_CONCAT(a, b) BISC_CONCAT_INNER(a, b)

/**
 * Register SSDlet class @p Class under @p id inside @p module. Mirrors
 * the paper's RegisterSSDLet (Code 2). The class footprint sizes each
 * instance's code copy, not the module image (DeclareModule).
 */
#define RegisterSSDLet(module, id, Class)                                 \
    static const bool BISC_CONCAT(bisc_reg_, __COUNTER__) = [] {          \
        ::bisc::rt::ModuleRegistry::global().registerSsdlet(              \
            module, id, sizeof(Class) + ::bisc::operator""_KiB(8),        \
            [] { return std::make_unique<Class>(); });                    \
        return true;                                                      \
    }()

/** Declare @p module's binary size in bytes, once per module. */
#define DeclareModule(module, image_bytes)                                \
    static const bool BISC_CONCAT(bisc_mod_, __COUNTER__) = [] {          \
        ::bisc::rt::ModuleRegistry::global().declareModule(               \
            module, image_bytes);                                         \
        return true;                                                      \
    }()

#endif  // BISCUIT_RUNTIME_MODULE_H_
