#include "rtrmgr/components.hpp"

#include "bgp/bgp_xrl.hpp"
#include "fea/fea_xrl.hpp"
#include "ospf/ospf_xrl.hpp"
#include "rib/rib_xrl.hpp"
#include "rip/rip_xrl.hpp"

namespace xrp::rtrmgr {

namespace {

const ComponentEntry kComponents[] = {
    {"fea", {}, false,
     [](ev::EventLoop& loop, ipc::XrlRouter& xr, Components& c) {
         c.fea = std::make_unique<fea::Fea>(loop);
         c.fea->set_node(c.node);
         fea::bind_fea_xrl(*c.fea, xr);
     },
     [](Components& c) { c.fea.reset(); }},
    {"rib", {}, false,
     [](ev::EventLoop& loop, ipc::XrlRouter& xr, Components& c) {
         c.rib = std::make_unique<rib::Rib>(
             loop, std::make_unique<rib::XrlFeaHandle>(xr));
         c.rib->set_node(c.node);
         rib::bind_rib_xrl(*c.rib, xr);
     },
     [](Components& c) { c.rib.reset(); }},
    // RIP has no XRL interface of its own: it only sends (to the RIB).
    {"rip", {"rip"}, true,
     [](ev::EventLoop& loop, ipc::XrlRouter& xr, Components& c) {
         c.rip = std::make_unique<rip::RipProcess>(
             loop, *c.fea, rip::RipProcess::Config{},
             std::make_unique<rip::XrlRibClient>(xr));
     },
     [](Components& c) { c.rip.reset(); }},
    {"ospf", {"ospf"}, true,
     [](ev::EventLoop& loop, ipc::XrlRouter& xr, Components& c) {
         c.ospf = std::make_unique<ospf::OspfProcess>(
             loop, *c.fea, ospf::OspfProcess::Config{},
             std::make_unique<ospf::XrlRibClient>(xr));
         c.ospf->set_node(c.node);
         ospf::bind_ospf_xrl(*c.ospf, xr);
     },
     [](Components& c) { c.ospf.reset(); }},
    {"bgp", {"ebgp", "ibgp"}, false,
     [](ev::EventLoop& loop, ipc::XrlRouter& xr, Components& c) {
         c.bgp = std::make_unique<bgp::BgpProcess>(
             loop, c.bgp_config, std::make_unique<bgp::XrlRibHandle>(xr));
         bgp::bind_bgp_xrl(*c.bgp, xr);
     },
     [](Components& c) { c.bgp.reset(); }},
};

}  // namespace

const ComponentEntry* find_component(const std::string& cls) {
    for (const ComponentEntry& e : kComponents)
        if (cls == e.cls) return &e;
    return nullptr;
}

}  // namespace xrp::rtrmgr
