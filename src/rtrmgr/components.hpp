// The component table: one entry per component class the Router Manager
// can start (§3: fea, rib, bgp, ospf, rip). Each entry knows how to build
// its component against an event loop and an XrlRouter, and which RIB
// origin protocols the component feeds (what the Supervisor's graceful
// restart marks stale on its death). Every deployment builds components
// through this table: rtrmgr::Router on one loop or on component threads,
// and the xrp_component binary that ProcessRouter forks per class.
#ifndef XRP_RTRMGR_COMPONENTS_HPP
#define XRP_RTRMGR_COMPONENTS_HPP

#include <memory>
#include <string>
#include <vector>

#include "bgp/process.hpp"
#include "fea/fea.hpp"
#include "ipc/router.hpp"
#include "ospf/ospf.hpp"
#include "rib/rib.hpp"
#include "rip/rip.hpp"

namespace xrp::rtrmgr {

// What the entries build from, and the objects they build. A router fills
// every slot; an xrp_component process fills the one it hosts. Members
// are destroyed in reverse order: bgp first, the FEA (which rip and ospf
// call directly) last.
struct Components {
    std::string node;                // journal node name
    bgp::BgpProcess::Config bgp_config;  // read by the bgp entry

    std::unique_ptr<fea::Fea> fea;
    std::unique_ptr<rib::Rib> rib;
    std::unique_ptr<rip::RipProcess> rip;
    std::unique_ptr<ospf::OspfProcess> ospf;
    std::unique_ptr<bgp::BgpProcess> bgp;
};

struct ComponentEntry {
    const char* cls;  // Finder target class
    // RIB origin protocols the component feeds (bgp feeds both).
    std::vector<std::string> protocols;
    // The component calls the Fea object directly for interface I/O, so it
    // runs on the FEA's loop (or, hosted alone, against a private FEA).
    bool uses_fea;
    // Constructs the component into `c` against `loop` and binds its XRL
    // interface on `xr`. The caller finalizes `xr` (after adding any
    // families). A `uses_fea` entry needs `c.fea` set.
    void (*build)(ev::EventLoop& loop, ipc::XrlRouter& xr, Components& c);
    // Destroys the component's objects (not its XrlRouter).
    void (*destroy)(Components& c);
};

// The entry for `cls`, or nullptr for an unknown class.
const ComponentEntry* find_component(const std::string& cls);

}  // namespace xrp::rtrmgr

#endif
