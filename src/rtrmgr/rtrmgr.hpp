// Router: the Router Manager's view of one complete router (§3, Figure 1)
// — the component that "starts, configures, and stops protocols and other
// router functionality" and "hides the router's internal structure from
// the user".
//
// One Router owns one Plexus (event loop shared, Finder, intra-process
// registry) and assembles the full control plane in it: FEA, RIB, RIP,
// OSPF, static routes, and (when configured) BGP — each built through the
// component table (components.hpp) behind its own XrlRouter, coupled to
// the others only by XRLs. Configuration follows commit semantics:
// configure() validates the whole tree first and applies it only if
// clean; rollback() restores the previous running config.
//
// Placement is router-wide:
//   - kLoop: every component on the caller's loop (virtual clocks allowed;
//     the simulator and the deterministic scenario matrix use this).
//   - kThreads: FEA, RIB and BGP each run their own loop on a
//     ComponentThread, joined by the xring family; rip and ospf share the
//     FEA's thread because they call the Fea object directly. The Router
//     Manager (its XrlRouter, the Finder and the Supervisor) stays on the
//     caller's loop, which must run on a real clock: component threads
//     park in poll(2), which a virtual clock cannot drive.
// Component objects belong to their component's loop: touch them through
// run_sync()/post() (inline/the caller's loop under kLoop), or read the
// cross-thread fib_size() mirror.
#ifndef XRP_RTRMGR_RTRMGR_HPP
#define XRP_RTRMGR_RTRMGR_HPP

#include <atomic>
#include <functional>
#include <map>
#include <memory>

#include "rtrmgr/component_thread.hpp"
#include "rtrmgr/components.hpp"
#include "rtrmgr/configtree.hpp"
#include "rtrmgr/supervisor.hpp"

namespace xrp::rtrmgr {

class Router {
public:
    enum class Placement { kLoop, kThreads };

    // All routers in a simulation share `loop` (and thus one clock); each
    // router still has its own Finder and component namespace. `loop`
    // is the Router Manager's loop in either placement.
    Router(std::string name, ev::EventLoop& loop,
           Placement placement = Placement::kLoop);
    ~Router();
    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    const std::string& name() const { return name_; }
    ipc::Plexus& plexus() { return plexus_; }
    fea::Fea& fea() { return *parts_.fea; }
    rib::Rib& rib() { return *parts_.rib; }
    rip::RipProcess& rip() { return *parts_.rip; }
    ospf::OspfProcess& ospf() { return *parts_.ospf; }
    // Null until a bgp section is configured (or while killed).
    bgp::BgpProcess* bgp() { return parts_.bgp.get(); }
    // The component watchdog: health probes, restart-with-backoff,
    // graceful-restart choreography against the RIB, crash-loop breaker.
    Supervisor& supervisor() { return *supervisor_; }

    // FIB size, mirrored from the FEA's loop: safe from any thread.
    size_t fib_size() const {
        return fib_size_.load(std::memory_order_relaxed);
    }

    // ---- doors onto a component's loop --------------------------------
    // Runs `fn` on the loop of component class `cls` and waits for it.
    void run_sync(const std::string& cls, const std::function<void()>& fn);
    // Queues `fn` onto that loop and returns.
    void post(const std::string& cls, std::function<void()> fn);

    // ---- component lifecycle ------------------------------------------
    // Destroys a component's objects and its XrlRouter on its own loop, as
    // a crash would; the Supervisor sees the Finder death and restarts it.
    // For the supervised classes: rip, ospf, bgp (rip and ospf hold
    // references to the FEA, and the RIB is not restarted).
    void kill(const std::string& cls);

    // ---- configuration (commit semantics) -------------------------------
    bool configure(const std::string& config_text, std::string* error);
    bool configure(const ConfigTree& tree, std::string* error);
    bool rollback(std::string* error);
    const ConfigTree& running_config() const { return running_; }

    // ---- topology helpers (kLoop placement) ---------------------------
    void attach_link(fea::VirtualNetwork& network, int link_id,
                     const std::string& ifname) {
        parts_.fea->attach_to_network(&network, link_id, ifname);
    }
    // Wires a BGP session between two configured routers.
    static void connect_bgp(
        Router& a, Router& b,
        ev::Duration latency = std::chrono::milliseconds(1));

private:
    bool validate(const ConfigTree& tree, std::string* error) const;
    bool apply(const ConfigTree& tree, std::string* error);
    // The protocol sections. rip and ospf apply the diff `from` -> `to`;
    // a restart replays running_ against an empty tree.
    void apply_rip(const ConfigTree& from, const ConfigTree& to);
    bool apply_ospf(const ConfigTree& from, const ConfigTree& to,
                    std::string* error);
    // Creates BGP on its first section, then originates its networks.
    void apply_bgp(const ConfigTree& tree);

    // The thread hosting `cls`; nullptr under kLoop and for the manager.
    ComponentThread* thread_for(const std::string& cls);
    // Creates the component's XrlRouter on its loop, builds the component
    // through its table entry and registers it with the Finder.
    void build(const ComponentEntry& c);
    // Puts `cls` under the Supervisor; `resynced` runs on its loop.
    void supervise(const std::string& cls, std::function<bool()> resynced);
    // The Supervisor's restart hook: tear down the dead objects (process
    // first — it references its XrlRouter; destroying the XrlRouter
    // unregisters the dead instance so the fresh one can take the
    // sole-class slot), build fresh ones, and re-apply running_.
    void restart(const std::string& cls);
    // Rewires every remembered BGP session after a BGP restart.
    void rewire_bgp_sessions();

    // One configured BGP session to a neighboring Router, remembered so a
    // restarted BgpProcess can be rewired: the peer drops its old session
    // and both sides get fresh transports. Ids are BgpProcess peer ids.
    struct BgpLink {
        Router* peer;
        ev::Duration latency;
        int local_id;
        int remote_id;
    };

    std::string name_;
    ipc::Plexus plexus_;
    std::atomic<size_t> fib_size_{0};

    // Component threads by class (fea, rib, bgp); empty under kLoop.
    // Declared before everything they host.
    std::map<std::string, std::unique_ptr<ComponentThread>> threads_;
    std::map<std::string, std::unique_ptr<ipc::XrlRouter>> xr_;  // by class
    std::unique_ptr<ipc::XrlRouter> mgr_xr_;  // the Router Manager's own
    Components parts_;

    ConfigTree running_;
    ConfigTree previous_;

    std::vector<BgpLink> bgp_links_;
    // Declared last: destroyed first, so teardown of the XrlRouters above
    // cannot be mistaken for component deaths.
    std::unique_ptr<Supervisor> supervisor_;
};

}  // namespace xrp::rtrmgr

#endif
