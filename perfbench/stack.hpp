// The router under test: FEA, RIB and (for bgp_feed) BGP, each behind its
// own XrlRouter on one event loop and joined over loopback stcp, as in the
// paper's multi-process deployment. The benchmark only drives it from the
// outside: feed peers, XrlRibHandle::push_batch, Fea::fib().
#ifndef PERFBENCH_STACK_HPP
#define PERFBENCH_STACK_HPP

#include <functional>
#include <map>
#include <memory>

#include "common.hpp"
#include "fea/fea_xrl.hpp"
#include "sim/harness.hpp"

namespace perfbench {

using xrp::net::IPv4;
using xrp::net::IPv4Net;

// Nexthops of the two feed peerings; the static route covering them is
// the IGP route that makes every BGP nexthop resolvable.
inline const IPv4 kNexthopA = IPv4::must_parse("192.0.2.1");
inline const IPv4 kNexthopB = IPv4::must_parse("192.0.2.2");
inline const IPv4Net kPeeringNet = IPv4Net::must_parse("192.0.2.0/24");

// Ledgers for the two handle decorators; null members = untraced stack.
struct StackTrace {
    HandleLedger* rib_push = nullptr;  // BGP -> RIB (bgp::RibHandle)
    HandleLedger* fea_push = nullptr;  // RIB -> FEA (rib::FeaHandle)
};

struct RouteStack {
    xrp::ev::RealClock clock;
    xrp::ipc::Plexus plexus{clock};
    xrp::ipc::XrlRouter fea_xr{plexus, "fea", true};
    xrp::fea::Fea fea{plexus.loop};
    xrp::ipc::XrlRouter rib_xr{plexus, "rib", true};
    std::unique_ptr<xrp::rib::Rib> rib;
    xrp::ipc::XrlRouter bgp_xr{plexus, "bgp", true};
    // bgp_feed: the BGP process owns the RIB handle. bulk_download: no BGP
    // process; the benchmark pushes into `rib_handle` directly.
    std::unique_ptr<xrp::bgp::BgpProcess> bgp;
    std::unique_ptr<xrp::bgp::RibHandle> rib_handle;

    RouteStack(bool with_bgp, const StackTrace& trace) {
        xrp::fea::bind_fea_xrl(fea, fea_xr);
        fea_xr.enable_tcp();
        fea_xr.finalize();

        auto fh = std::make_unique<xrp::rib::XrlFeaHandle>(rib_xr);
        std::unique_ptr<xrp::rib::FeaHandle> fea_handle;
        if (trace.fea_push != nullptr)
            fea_handle = std::make_unique<TimedFeaHandle>(std::move(fh),
                                                          *trace.fea_push);
        else
            fea_handle = std::move(fh);
        rib = std::make_unique<xrp::rib::Rib>(plexus.loop,
                                              std::move(fea_handle));
        xrp::rib::bind_rib_xrl(*rib, rib_xr);
        rib_xr.enable_tcp();
        rib_xr.finalize();
        rib_xr.set_preferred_family("stcp");

        auto rh = std::make_unique<xrp::bgp::XrlRibHandle>(bgp_xr);
        std::unique_ptr<xrp::bgp::RibHandle> rib_h;
        if (trace.rib_push != nullptr)
            rib_h = std::make_unique<TimedRibHandle>(std::move(rh),
                                                     *trace.rib_push);
        else
            rib_h = std::move(rh);
        if (with_bgp) {
            xrp::bgp::BgpProcess::Config cfg;
            cfg.local_as = 1777;
            cfg.bgp_id = IPv4::must_parse("192.0.2.250");
            bgp = std::make_unique<xrp::bgp::BgpProcess>(plexus.loop, cfg,
                                                         std::move(rib_h));
            xrp::bgp::bind_bgp_xrl(*bgp, bgp_xr);
        } else {
            rib_handle = std::move(rib_h);
        }
        bgp_xr.enable_tcp();
        bgp_xr.finalize();
        bgp_xr.set_preferred_family("stcp");

        rib->add_route("static", kPeeringNet,
                       IPv4::must_parse("192.0.2.250"), 1);
    }

    bool run_until(const std::function<bool()>& pred,
                   std::chrono::milliseconds limit) {
        return plexus.loop.run_until(pred, limit);
    }
    size_t fib_size() const { return fea.fib().size(); }
};

// The expected forwarding table: prefix -> last-written nexthop.
using Table = std::map<IPv4Net, IPv4>;

inline Table snapshot_fib(const RouteStack& s) {
    Table t;
    s.fea.fib().for_each([&t](const IPv4Net& net, const xrp::fea::FibEntry& e) {
        t[net] = e.nexthop;
    });
    return t;
}

// Entries in which the FIB and the oracle disagree: missing, extra, or a
// different nexthop.
inline uint64_t fib_mismatches(const RouteStack& s, const Table& expected) {
    uint64_t bad = 0;
    for (const auto& [net, nh] : expected) {
        const auto* e = s.fea.fib().find_exact(net);
        if (e == nullptr || e->nexthop != nh) ++bad;
    }
    const size_t have = s.fea.fib().size();
    if (have > expected.size()) bad += have - expected.size();
    return bad;
}

}  // namespace perfbench

#endif
