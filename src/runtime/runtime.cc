#include "runtime/runtime.h"

#include <algorithm>
#include <sstream>

#include "util/log.h"

namespace bisc::rt {

Runtime::Runtime(sim::Kernel &kernel, ssd::SsdDevice &device,
                 fs::FileSystem &fs)
    : kernel_(kernel), device_(device), fs_(fs),
      metric_scope_(kernel.obs().metrics().scope()),
      system_alloc_("system", device.config().system_mem_bytes),
      user_alloc_("user", device.config().user_mem_bytes)
{}

void
Runtime::chargeControl()
{
    // The runtime spans both device cores; control work runs on
    // whichever is free soonest, so a busy application on one core
    // does not stall the whole control plane.
    sim::Server *best = &device_.core(0);
    for (std::uint32_t i = 1; i < device_.coreCount(); ++i) {
        if (device_.core(i).busyUntil() < best->busyUntil())
            best = &device_.core(i);
    }
    best->compute(config().control_op_cost);
}

ModuleId
Runtime::loadModule(const std::string &slet_path)
{
    chargeControl();
    BISC_ASSERT(fs_.exists(slet_path), "no such module file: ",
                slet_path);

    // Read the header page off flash (timed).
    Bytes file_size = fs_.size(slet_path);
    Bytes header_len = std::min<Bytes>(256, file_size);
    std::vector<std::uint8_t> header(header_len);
    fs::ReadResult hdr = fs_.read(slet_path, 0, header_len,
                                  header.data());
    kernel_.sleepUntil(hdr.done);
    if (!hdr.status.ok()) {
        BISC_FATAL("unrecoverable media error reading module header ",
                   slet_path, ": ", hdr.status.toString());
    }

    std::string name =
        ModuleRegistry::parseHeader(header.data(), header.size());
    if (name.empty())
        BISC_FATAL("corrupt .slet header in ", slet_path);
    const ModuleImage *image = ModuleRegistry::global().find(name);
    if (image == nullptr)
        BISC_FATAL("module '", name, "' is not registered");

    // Stream the whole image off flash (timed), then charge symbol
    // relocation on the control core.
    fs::ReadResult body = fs_.read(slet_path, 0, file_size, nullptr);
    kernel_.sleepUntil(body.done);
    if (!body.status.ok()) {
        BISC_FATAL("unrecoverable media error streaming module image ",
                   slet_path, ": ", body.status.toString());
    }
    Tick reloc = config().module_load_fixed +
                 transferTicks(image->image_bytes,
                               config().module_load_bw);
    device_.core(0).compute(reloc);

    auto mem = system_alloc_.allocate(image->image_bytes);
    if (!mem)
        BISC_FATAL("out of system memory loading module '", name, "'");

    ModuleId mid = next_module_++;
    modules_.emplace(mid, LoadedModule{mid, image, *mem, 0});
    BISC_INFORM("loaded module '", name, "' as id ", mid);
    OBS_COUNT(kernel_.obs().metrics().counter(
        metric_scope_ + "rt.modules_loaded", "modules"));
    OBS_INSTANT(kernel_.obs(), "rt", "loadModule",
                static_cast<std::int64_t>(mid));
    return mid;
}

void
Runtime::unloadModule(ModuleId mid)
{
    chargeControl();
    auto it = modules_.find(mid);
    BISC_ASSERT(it != modules_.end(), "unloadModule: unknown id ", mid);

    // Reclaim instances whose application has stopped (paper Code 3
    // unloads right after all SSDlets finish). Running instances make
    // the unload a user error.
    for (auto iit = instances_.begin(); iit != instances_.end();) {
        Instance &ins = *iit->second;
        if (ins.mod != mid) {
            ++iit;
            continue;
        }
        const App &a = app(ins.app);
        BISC_ASSERT(a.started && a.running == 0,
                    "unloadModule while instances alive (module '",
                    it->second.image->name, "')");
        user_alloc_.free(ins.user_mem);
        --it->second.live_instances;
        iit = instances_.erase(iit);
    }
    BISC_ASSERT(it->second.live_instances == 0,
                "unloadModule accounting bug");
    system_alloc_.free(it->second.mem);
    modules_.erase(it);
}

AppId
Runtime::createApp()
{
    chargeControl();
    AppId id = next_app_++;
    App a;
    a.id = id;
    // Applications, not SSDlets, are the unit of multi-core
    // scheduling: every SSDlet of this app runs on this core.
    a.core = next_core_;
    next_core_ = (next_core_ + 1) % device_.coreCount();
    a.done = std::make_unique<sim::Waiter>(kernel_);
    apps_.emplace(id, std::move(a));
    return id;
}

InstanceId
Runtime::createInstance(AppId app_id, ModuleId mid,
                        const std::string &registered_id, Packet args)
{
    chargeControl();
    App &a = app(app_id);
    BISC_ASSERT(!a.started, "createInstance after start");
    auto mit = modules_.find(mid);
    BISC_ASSERT(mit != modules_.end(), "unknown module id ", mid);
    LoadedModule &mod = mit->second;

    auto fit = mod.image->factories.find(registered_id);
    if (fit == mod.image->factories.end()) {
        BISC_FATAL("module '", mod.image->name, "' has no SSDlet '",
                   registered_id, "'");
    }

    auto ins = std::make_unique<Instance>();
    ins->id = next_instance_++;
    ins->app = app_id;
    ins->mod = mid;
    ins->reg_id = registered_id;
    ins->obj = fit->second();

    // Each instance gets a separate address space carved out of user
    // memory (code copy + stack + private heap).
    Bytes space = mod.image->ssdlet_bytes.at(registered_id) +
                  config().instance_user_mem;
    auto mem = user_alloc_.allocate(space);
    if (!mem)
        BISC_FATAL("out of user memory instantiating '", registered_id,
                   "'");
    ins->user_mem = *mem;

    DeviceContext ctx;
    ctx.runtime = this;
    ctx.core = &device_.core(a.core);
    ctx.app = app_id;
    ctx.instance = ins->id;
    ins->obj->setContext(ctx);
    ins->obj->initArgs(args);

    ++mod.live_instances;
    a.instances.push_back(ins->id);
    InstanceId id = ins->id;
    instances_.emplace(id, std::move(ins));
    return id;
}

void
Runtime::startApp(AppId app_id)
{
    chargeControl();
    App &a = app(app_id);
    BISC_ASSERT(!a.started, "startApp called twice");
    a.started = true;
    a.running = static_cast<int>(a.instances.size());
    OBS_INSTANT(kernel_.obs(), "rt", "startApp",
                static_cast<std::int64_t>(a.running));
    if (a.running == 0) {
        a.done->notifyAll();
        return;
    }
    ++active_apps_;
    for (InstanceId iid : a.instances) {
        Instance *ins = instances_.at(iid).get();
        kernel_.spawn(
            "slet:" + ins->reg_id + "#" + std::to_string(iid),
            [this, ins] {
                // Fiber dispatch latency before user code runs.
                ins->obj->context().core->compute(
                    config().sched_latency);
                ins->obj->run();
                finishInstance(*ins);
            });
    }
}

void
Runtime::waitApp(AppId app_id)
{
    App &a = app(app_id);
    BISC_ASSERT(a.started, "waitApp before startApp would never wake");
    if (a.running == 0)
        return;
    a.done->wait();
}

bool
Runtime::appStarted(AppId app_id) const
{
    return app(app_id).started;
}

bool
Runtime::appFinished(AppId app_id) const
{
    const App &a = app(app_id);
    return a.started && a.running == 0;
}

void
Runtime::destroyApp(AppId app_id)
{
    chargeControl();
    App &a = app(app_id);
    BISC_ASSERT(!a.started || a.running == 0,
                "destroyApp while SSDlets are running");
    for (InstanceId iid : a.instances) {
        auto it = instances_.find(iid);
        if (it == instances_.end())
            continue;
        Instance &ins = *it->second;
        user_alloc_.free(ins.user_mem);
        auto mit = modules_.find(ins.mod);
        if (mit != modules_.end())
            --mit->second.live_instances;
        instances_.erase(it);
    }
    apps_.erase(app_id);
}

sim::Server &
Runtime::coreOf(AppId app_id)
{
    return device_.core(app(app_id).core);
}

void
Runtime::connect(const PortRef &out, const PortRef &in)
{
    chargeControl();
    BISC_ASSERT(out.output && !in.output,
                "connect needs (output, input)");
    BISC_ASSERT(out.app == in.app,
                "connect spans applications; use inter-app ports");
    BISC_ASSERT(!app(out.app).started,
                "connections must be set up before start");
    Instance &p = endpointOf(out);
    Instance &c = endpointOf(in);

    PortInfo pi = p.obj->outputInfo(out.index);
    PortInfo ci = c.obj->inputInfo(in.index);
    if (pi.type != ci.type) {
        BISC_FATAL("type mismatch connecting ", p.reg_id, ".out(",
                   out.index, ") to ", c.reg_id, ".in(", in.index,
                   "): implicit conversion is not allowed");
    }

    auto pc = p.obj->outputConnection(out.index);
    auto cc = c.obj->inputConnection(in.index);
    if (pc && cc) {
        BISC_ASSERT(pc == cc, "ports already connected elsewhere");
        return;  // idempotent
    }
    if (!pc && !cc) {
        auto conn = pi.make_typed(kernel_,
                                  config().port_queue_capacity);
        p.obj->bindOutput(out.index, conn);
        c.obj->bindInput(in.index, conn);
        conn->producer_ends = 1;
        conn->consumer_ends = 1;
        conn->add_producer();
        return;
    }
    if (pc && !cc) {
        // Single producer, multiple consumers share the queue (SPMC).
        c.obj->bindInput(in.index, pc);
        ++pc->consumer_ends;
        return;
    }
    // MPSC: a new producer joins the consumer's queue.
    p.obj->bindOutput(out.index, cc);
    ++cc->producer_ends;
    cc->add_producer();
}

void
Runtime::connectAcross(const PortRef &out, const PortRef &in)
{
    chargeControl();
    BISC_ASSERT(out.output && !in.output,
                "connectAcross needs (output, input)");
    BISC_ASSERT(out.app != in.app,
                "connectAcross within one app; use connect");
    Instance &c = endpointOf(in);
    PortInfo ci = c.obj->inputInfo(in.index);
    auto conn = makePacketConnection(Flavor::kInterApp, out, ci.type);
    BISC_ASSERT(!c.obj->inputConnection(in.index),
                "inter-app ports allow SPSC only");
    if (!ci.serializable) {
        BISC_FATAL("inter-app data must be (de)serializable: ",
                   c.reg_id, ".in(", in.index, ")");
    }
    c.obj->bindInput(in.index, conn);
    conn->consumer_ends = 1;
}

std::shared_ptr<Connection>
Runtime::connectToHost(const PortRef &out, std::type_index elem)
{
    chargeControl();
    BISC_ASSERT(out.output, "connectTo needs a device output port");
    auto conn = makePacketConnection(Flavor::kDeviceToHost, out, elem);
    conn->consumer_ends = 1;  // the host port
    return conn;
}

std::shared_ptr<Connection>
Runtime::connectFromHost(const PortRef &in, std::type_index elem)
{
    chargeControl();
    BISC_ASSERT(!in.output, "connectFrom needs a device input port");
    Instance &c = endpointOf(in);
    PortInfo ci = c.obj->inputInfo(in.index);
    if (ci.type != elem)
        BISC_FATAL("type mismatch on host-to-device port");
    if (!ci.serializable)
        BISC_FATAL("host-to-device data must be (de)serializable");
    BISC_ASSERT(!c.obj->inputConnection(in.index),
                "host-to-device ports allow SPSC only");

    auto conn = std::make_shared<Connection>();
    conn->flavor = Flavor::kHostToDevice;
    conn->elem = ci.type;
    conn->packets = std::make_shared<PacketStream>(
        kernel_, config().port_queue_capacity);
    auto ps = conn->packets;
    conn->add_producer = [ps] { ps->addProducer(); };
    conn->remove_producer = [ps] { ps->removeProducer(); };
    c.obj->bindInput(in.index, conn);
    conn->consumer_ends = 1;
    return conn;
}

std::shared_ptr<Connection>
Runtime::makePacketConnection(Flavor flavor, const PortRef &out,
                              std::type_index elem)
{
    Instance &p = endpointOf(out);
    PortInfo pi = p.obj->outputInfo(out.index);
    if (pi.type != elem) {
        BISC_FATAL("type mismatch on ", p.reg_id, ".out(", out.index,
                   "): port carries a different element type");
    }
    if (!pi.serializable) {
        BISC_FATAL("data crossing ", p.reg_id, ".out(", out.index,
                   ") must be (de)serializable");
    }
    BISC_ASSERT(!p.obj->outputConnection(out.index),
                "this port flavor allows SPSC only");

    auto conn = std::make_shared<Connection>();
    conn->flavor = flavor;
    conn->elem = pi.type;
    conn->packets = std::make_shared<PacketStream>(
        kernel_, config().port_queue_capacity);
    auto ps = conn->packets;
    conn->add_producer = [ps] { ps->addProducer(); };
    conn->remove_producer = [ps] { ps->removeProducer(); };
    p.obj->bindOutput(out.index, conn);
    conn->producer_ends = 1;
    conn->add_producer();
    return conn;
}

Runtime::App &
Runtime::app(AppId id)
{
    auto it = apps_.find(id);
    BISC_ASSERT(it != apps_.end(), "unknown app id ", id);
    return it->second;
}

const Runtime::App &
Runtime::app(AppId id) const
{
    auto it = apps_.find(id);
    BISC_ASSERT(it != apps_.end(), "unknown app id ", id);
    return it->second;
}

Runtime::Instance &
Runtime::instance(InstanceId id)
{
    auto it = instances_.find(id);
    BISC_ASSERT(it != instances_.end(), "unknown instance id ", id);
    return *it->second;
}

Runtime::Instance &
Runtime::endpointOf(const PortRef &ref)
{
    Instance &ins = instance(ref.instance);
    std::size_t count = ref.output ? ins.obj->numOutputs()
                                   : ins.obj->numInputs();
    BISC_ASSERT(ref.index < count, "port index ", ref.index,
                " out of range for ", ins.reg_id);
    return ins;
}

std::string
Runtime::describe() const
{
    std::ostringstream os;
    os << "Biscuit runtime state\n";
    os << "  modules (" << modules_.size() << "):\n";
    for (const auto &[mid, mod] : modules_) {
        os << "    #" << mid << " '" << mod.image->name << "' "
           << (mod.image->image_bytes >> 10) << " KiB, "
           << mod.live_instances << " live instance(s)\n";
    }
    os << "  applications (" << apps_.size() << "):\n";
    for (const auto &[aid, app] : apps_) {
        os << "    #" << aid << " core" << app.core << " "
           << (app.started
                   ? (app.running == 0 ? "finished" : "running")
                   : "created")
           << ", " << app.instances.size() << " instance(s)\n";
    }
    os << "  instances (" << instances_.size() << "):";
    for (const auto &[iid, ins] : instances_)
        os << " " << ins->reg_id << "#" << iid;
    os << "\n  system mem: " << (system_alloc_.used() >> 10) << "/"
       << (system_alloc_.capacity() >> 10) << " KiB, user mem: "
       << (user_alloc_.used() >> 10) << "/"
       << (user_alloc_.capacity() >> 10) << " KiB\n";
    return os.str();
}

void
Runtime::finishInstance(Instance &ins)
{
    // Close every output this instance produced into, so consumers
    // observe end-of-stream once all producers are done.
    for (std::size_t i = 0; i < ins.obj->numOutputs(); ++i) {
        auto conn = ins.obj->outputConnection(i);
        if (conn && conn->remove_producer)
            conn->remove_producer();
    }
    App &a = app(ins.app);
    --a.running;
    if (a.running == 0) {
        --active_apps_;
        a.done->notifyAll();
    }
}

namespace {

constexpr std::size_t kSparePackets = 16;
thread_local std::vector<Packet> spare_packets;

}  // namespace

void
recyclePacket(Packet p)
{
    if (spare_packets.size() >= kSparePackets)
        return;
    p.clear();
    spare_packets.push_back(std::move(p));
}

Packet
sparePacket()
{
    if (spare_packets.empty())
        return Packet();
    Packet p = std::move(spare_packets.back());
    spare_packets.pop_back();
    return p;
}

}  // namespace bisc::rt
