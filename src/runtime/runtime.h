/**
 * @file
 * The Biscuit device runtime (paper §IV-B).
 *
 * "The Biscuit runtime centrally mediates access to SSD resources and
 * has complete control over all events occurring in the framework."
 * Concretely this class owns: dynamic module loading/unloading, SSDlet
 * instantiation with per-instance address spaces, the system and user
 * memory allocators, application lifecycle (cooperative fibers pinned
 * per-application to one device core) and connection wiring for every
 * port flavor.
 *
 * Control-plane methods are invoked by libsisc from the host fiber;
 * they charge their device-side work on core 0 (the control core).
 * The host<->device hop latency around each call is charged by
 * libsisc, mirroring the control channel of the channel manager.
 */

#ifndef BISCUIT_RUNTIME_RUNTIME_H_
#define BISCUIT_RUNTIME_RUNTIME_H_

#include <map>
#include <memory>
#include <string>
#include <typeindex>
#include <vector>

#include "fs/file_system.h"
#include "runtime/allocator.h"
#include "runtime/module.h"
#include "runtime/ssdlet_base.h"
#include "runtime/stream.h"
#include "runtime/types.h"
#include "sim/kernel.h"
#include "ssd/device.h"

namespace bisc::rt {

class Runtime
{
  public:
    Runtime(sim::Kernel &kernel, ssd::SsdDevice &device,
            fs::FileSystem &fs);

    sim::Kernel &kernel() { return kernel_; }
    ssd::SsdDevice &device() { return device_; }
    fs::FileSystem &fs() { return fs_; }
    const ssd::SsdConfig &config() const { return device_.config(); }

    /**
     * The drive qualifier ("drive<k>." inside a multi-drive
     * sisc::DriveArray, empty otherwise) captured from the metrics
     * registry at construction. Lazily registered metrics — the port
     * wait histograms, the module-load counter — prepend it so drives
     * of an array never share a metric.
     */
    const std::string &metricScope() const { return metric_scope_; }

    Allocator &systemAllocator() { return system_alloc_; }
    Allocator &userAllocator() { return user_alloc_; }

    // ----- Module lifecycle -----

    /**
     * Load the .slet file at @p slet_path: read it off flash (timed),
     * resolve the module image, charge relocation and allocate system
     * memory for the image. Fatal on unknown/corrupt modules.
     */
    ModuleId loadModule(const std::string &slet_path);

    /** Unload a module; panics while instances still exist. */
    void unloadModule(ModuleId mid);

    // ----- Application lifecycle -----

    /** Create an application; pinned round-robin to a device core. */
    AppId createApp();

    /**
     * Instantiate SSDlet @p registered_id of module @p mid into
     * @p app, shipping @p args (a serialized ARG tuple) to it.
     */
    InstanceId createInstance(AppId app, ModuleId mid,
                              const std::string &registered_id,
                              Packet args);

    /** Begin execution of every instance of @p app. */
    void startApp(AppId app);

    /** Block the calling fiber until every instance of @p app ends. */
    void waitApp(AppId app);

    bool appStarted(AppId app) const;
    bool appFinished(AppId app) const;

    /**
     * Tear an application down after it finished, reclaiming instance
     * memory and dropping module references.
     */
    void destroyApp(AppId app);

    /** The device core the application is pinned to. */
    sim::Server &coreOf(AppId app);

    // ----- Load accounting (admission control reads these) -----

    /** Applications currently started and not yet finished. */
    std::uint32_t activeApps() const { return active_apps_; }

    // ----- Port wiring -----

    /** Inter-SSDlet connection within one application. */
    void connect(const PortRef &out, const PortRef &in);

    /** Inter-application (Packet, SPSC) connection. */
    void connectAcross(const PortRef &out, const PortRef &in);

    /**
     * Device-to-host connection: binds the SSDlet output and returns
     * the stream the host input port consumes. @p elem is the host's
     * expected element type (checked against the port's).
     */
    std::shared_ptr<Connection> connectToHost(const PortRef &out,
                                              std::type_index elem);

    /** Host-to-device connection feeding an SSDlet input. */
    std::shared_ptr<Connection> connectFromHost(const PortRef &in,
                                                std::type_index elem);

    // ----- Introspection -----

    std::size_t liveInstances() const { return instances_.size(); }
    std::size_t loadedModules() const { return modules_.size(); }

    /**
     * Human-readable runtime state: loaded modules, applications and
     * their instances, allocator occupancy. Debug/ops tooling.
     */
    std::string describe() const;

  private:
    struct LoadedModule
    {
        ModuleId id = 0;
        const ModuleImage *image = nullptr;
        MemAddr mem = 0;
        int live_instances = 0;
    };

    struct Instance
    {
        InstanceId id = 0;
        AppId app = 0;
        ModuleId mod = 0;
        std::string reg_id;
        std::unique_ptr<SsdletBase> obj;
        MemAddr user_mem = 0;
    };

    struct App
    {
        AppId id = 0;
        std::uint32_t core = 0;
        std::vector<InstanceId> instances;
        int running = 0;
        bool started = false;
        std::unique_ptr<sim::Waiter> done;
    };

    /** Charge one control-plane operation on the control core. */
    void chargeControl();

    App &app(AppId id);
    const App &app(AppId id) const;
    Instance &instance(InstanceId id);

    /** Resolve a PortRef to (instance, PortInfo, existing connection). */
    Instance &endpointOf(const PortRef &ref);

    void finishInstance(Instance &ins);

    /** Make a packet connection and bind the device endpoint. */
    std::shared_ptr<Connection> makePacketConnection(
        Flavor flavor, const PortRef &device_ref, std::type_index elem);

    sim::Kernel &kernel_;
    ssd::SsdDevice &device_;
    fs::FileSystem &fs_;
    std::string metric_scope_;
    Allocator system_alloc_;
    Allocator user_alloc_;

    std::map<ModuleId, LoadedModule> modules_;
    std::map<AppId, App> apps_;
    std::map<InstanceId, std::unique_ptr<Instance>> instances_;

    ModuleId next_module_ = 1;
    AppId next_app_ = 1;
    InstanceId next_instance_ = 1;
    std::uint32_t next_core_ = 0;

    std::uint32_t active_apps_ = 0;
};

}  // namespace bisc::rt

#endif  // BISCUIT_RUNTIME_RUNTIME_H_
