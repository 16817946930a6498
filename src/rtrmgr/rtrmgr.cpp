#include "rtrmgr/rtrmgr.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "bgp/bgp_xrl.hpp"

namespace xrp::rtrmgr {

using net::IPv4;
using net::IPv4Net;
using xrl::Xrl;
using xrl::XrlArgs;

namespace {

bool fail(std::string* error, std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
}

bool valid_grace_leaf(const ConfigNode& c) {
    return c.args.size() == 1 && std::atoi(c.args[0].c_str()) > 0;
}

std::set<std::string> rip_interfaces(const ConfigTree& t) {
    std::set<std::string> out;
    if (const ConfigNode* r = t.find("protocols/rip"))
        for (const ConfigNode& c : r->children)
            if (c.name == "interface") out.insert(c.args[0]);
    return out;
}

std::map<std::string, uint32_t> ospf_interfaces(const ConfigTree& t) {
    std::map<std::string, uint32_t> out;
    if (const ConfigNode* o = t.find("protocols/ospf"))
        for (const ConfigNode& c : o->children)
            if (c.name == "interface") {
                uint32_t cost = 1;
                if (auto v = c.leaf_value("cost"))
                    cost = static_cast<uint32_t>(std::atoi(v->c_str()));
                out[c.args[0]] = cost;
            }
    return out;
}

bgp::BgpPeer::Config peer_config(const bgp::BgpProcess& local,
                                 const bgp::BgpProcess& remote) {
    bgp::BgpPeer::Config c;
    c.local_id = local.config().bgp_id;
    c.peer_addr = remote.config().bgp_id;
    c.local_as = local.config().local_as;
    c.peer_as = remote.config().local_as;
    return c;
}

}  // namespace

Router::Router(std::string name, ev::EventLoop& loop, Placement placement)
    : name_(std::move(name)), plexus_(loop) {
    // Journal events from every component of this router carry its name.
    plexus_.node = name_;
    plexus_.faults.set_node(name_);
    parts_.node = name_;
    if (placement == Placement::kThreads) {
        if (loop.clock().is_virtual()) {
            std::fprintf(stderr,
                         "rtrmgr: thread placement needs a real clock\n");
            std::abort();
        }
        for (const char* cls : {"fea", "rib", "bgp"})
            threads_[cls] = std::make_unique<ComponentThread>(loop.clock());
    }
    // Assembly order mirrors a real boot: FEA first (it owns the hardware
    // abstraction), then the RIB (which needs the FEA), then protocols.
    // Component threads are not started yet, so their loops accept
    // registrations from this thread.
    for (const char* cls : {"fea", "rib", "rip", "ospf"})
        build(*find_component(cls));
    parts_.fea->fib().set_change_callback([this](bool, const fea::FibEntry&) {
        fib_size_.store(parts_.fea->fib().size(), std::memory_order_relaxed);
    });

    mgr_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "rtrmgr", true);
    mgr_xr_->finalize();

    supervisor_ = std::make_unique<Supervisor>(plexus_, *mgr_xr_);
    supervise("rip", [this] {
        // enable_interface sent a whole-table request on restart; any
        // inbound packet means neighbors answered it. With no interfaces
        // configured there is nothing to relearn.
        return rip_interfaces(running_).empty() ||
               parts_.rip->stats().packets_in > 0;
    });
    supervise("ospf", [this] {
        // Full adjacency means the database exchange completed (we hold
        // the area's LSAs again); a first SPF run means routes flowed.
        return ospf_interfaces(running_).empty() ||
               (parts_.ospf->full_neighbor_count() > 0 &&
                parts_.ospf->stats().spf_runs > 0);
    });

    for (auto& [cls, t] : threads_) t->start();
}

Router::~Router() {
    // BGP first — it feeds the RIB, which feeds the FEA. Once a thread is
    // joined, this thread may destroy the objects it hosted.
    for (const char* cls : {"bgp", "rib", "fea"})
        if (auto it = threads_.find(cls); it != threads_.end())
            it->second->stop_and_join();
}

ComponentThread* Router::thread_for(const std::string& cls) {
    const ComponentEntry* c = find_component(cls);
    if (c == nullptr) return nullptr;  // the Router Manager itself
    auto it = threads_.find(c->uses_fea ? "fea" : cls);
    return it == threads_.end() ? nullptr : it->second.get();
}

void Router::run_sync(const std::string& cls,
                      const std::function<void()>& fn) {
    if (ComponentThread* t = thread_for(cls))
        t->run_sync(fn);
    else
        fn();
}

void Router::post(const std::string& cls, std::function<void()> fn) {
    if (ComponentThread* t = thread_for(cls))
        t->post(std::move(fn));
    else
        plexus_.loop.post(std::move(fn));
}

void Router::build(const ComponentEntry& c) {
    std::unique_ptr<ipc::XrlRouter>& xr = xr_[c.cls];
    if (ComponentThread* t = thread_for(c.cls))
        xr = std::make_unique<ipc::XrlRouter>(plexus_, t->loop(), c.cls,
                                              true);
    else
        xr = std::make_unique<ipc::XrlRouter>(plexus_, c.cls, true);
    c.build(xr->loop(), *xr, parts_);
    xr->finalize();
}

void Router::kill(const std::string& cls) {
    const ComponentEntry& c = *find_component(cls);
    run_sync(cls, [&] {
        c.destroy(parts_);
        xr_.erase(cls);
    });
}

bool Router::configure(const std::string& config_text, std::string* error) {
    auto tree = ConfigTree::parse(config_text, error);
    if (!tree) return false;
    return configure(*tree, error);
}

bool Router::configure(const ConfigTree& tree, std::string* error) {
    if (!validate(tree, error)) return false;
    previous_ = running_;
    if (!apply(tree, error)) return false;
    running_ = tree;
    return true;
}

bool Router::rollback(std::string* error) {
    ConfigTree target = previous_;
    return configure(target, error);
}

bool Router::validate(const ConfigTree& tree, std::string* error) const {
    // Crash-loop breaker surfacing: a component the Supervisor gave up on
    // makes the router's state ambiguous, so commits are refused until an
    // operator acknowledges (Supervisor::clear_failed re-arms the breaker
    // and retries the restart).
    if (supervisor_ != nullptr && supervisor_->any_failed()) {
        std::string who;
        for (const std::string& cls : supervisor_->failed())
            who += (who.empty() ? "" : ", ") + cls;
        return fail(error, "component(s) failed (crash-loop breaker): " +
                               who + "; clear_failed() to retry");
    }
    for (const ConfigNode& top : tree.root().children) {
        if (top.name == "interfaces") {
            for (const ConfigNode& itf : top.children) {
                auto addr = itf.leaf_value("address");
                if (!addr || !IPv4Net::parse(*addr))
                    return fail(error, "interface " + itf.name +
                                           ": bad or missing address");
            }
        } else if (top.name == "protocols") {
            for (const ConfigNode& proto : top.children) {
                if (proto.name == "static") {
                    for (const ConfigNode& r : proto.children) {
                        if (r.name != "route" || r.args.size() != 1 ||
                            !IPv4Net::parse(r.args[0]))
                            return fail(error, "static: bad route statement");
                        auto nh = r.leaf_value("nexthop");
                        if (!nh || !IPv4::parse(*nh))
                            return fail(error, "static route " + r.args[0] +
                                                   ": bad nexthop");
                    }
                } else if (proto.name == "rip") {
                    for (const ConfigNode& c : proto.children) {
                        if (c.name == "grace-period") {
                            if (!valid_grace_leaf(c))
                                return fail(error, "rip: bad grace-period");
                        } else if (c.name != "interface" ||
                                   c.args.size() != 1) {
                            return fail(
                                error,
                                "rip: expected 'interface <name>' or "
                                "'grace-period <seconds>'");
                        }
                    }
                } else if (proto.name == "ospf") {
                    for (const ConfigNode& c : proto.children) {
                        if (c.name == "grace-period") {
                            if (!valid_grace_leaf(c))
                                return fail(error, "ospf: bad grace-period");
                        } else if (c.name == "router-id") {
                            if (c.args.size() != 1 || !IPv4::parse(c.args[0]))
                                return fail(error, "ospf: bad router-id");
                        } else if (c.name == "max-paths") {
                            if (c.args.size() != 1 ||
                                std::atoi(c.args[0].c_str()) <= 0)
                                return fail(error, "ospf: bad max-paths");
                        } else if (c.name == "interface") {
                            if (c.args.size() != 1)
                                return fail(error,
                                            "ospf: expected 'interface <name>'");
                            if (auto cost = c.leaf_value("cost");
                                cost && std::atoi(cost->c_str()) <= 0)
                                return fail(error, "ospf: interface " +
                                                       c.args[0] +
                                                       ": bad cost");
                        } else {
                            return fail(error,
                                        "ospf: unknown statement: " + c.name);
                        }
                    }
                } else if (proto.name == "bgp") {
                    if (const ConfigNode* g = proto.find("grace-period"))
                        if (!valid_grace_leaf(*g))
                            return fail(error, "bgp: bad grace-period");
                    auto as = proto.leaf_value("local-as");
                    auto id = proto.leaf_value("bgp-id");
                    if (!as || std::atoi(as->c_str()) <= 0)
                        return fail(error, "bgp: bad or missing local-as");
                    if (!id || !IPv4::parse(*id))
                        return fail(error, "bgp: bad or missing bgp-id");
                    if (supervisor_->supervising("bgp")) {
                        // The core BGP identity is fixed at creation
                        // (and kept across restarts).
                        if (static_cast<bgp::As>(std::atoi(as->c_str())) !=
                                parts_.bgp_config.local_as ||
                            IPv4::must_parse(*id) != parts_.bgp_config.bgp_id)
                            return fail(error,
                                        "bgp: local-as/bgp-id cannot change "
                                        "at runtime");
                    }
                } else {
                    return fail(error, "unknown protocol: " + proto.name);
                }
            }
        } else {
            return fail(error, "unknown section: " + top.name);
        }
    }
    // Interface removal is not supported (sessions would dangle).
    if (const ConfigNode* old_ifs = running_.find("interfaces")) {
        const ConfigNode* new_ifs = tree.find("interfaces");
        for (const ConfigNode& itf : old_ifs->children)
            if (new_ifs == nullptr || new_ifs->find(itf.name) == nullptr)
                return fail(error,
                            "interface " + itf.name + " cannot be removed");
    }
    return true;
}

bool Router::apply(const ConfigTree& tree, std::string* error) {
    // ---- interfaces (additive) ----------------------------------------
    if (const ConfigNode* ifs = tree.find("interfaces")) {
        for (const ConfigNode& itf : ifs->children) {
            IPv4Net addr = IPv4Net::must_parse(*itf.leaf_value("address"));
            // leaf_value validated; address keeps host bits via raw parse.
            size_t slash = itf.leaf_value("address")->find('/');
            IPv4 host = IPv4::must_parse(
                itf.leaf_value("address")->substr(0, slash));
            bool added = false;
            run_sync("fea", [&] {
                if (parts_.fea->interfaces().find(itf.name) != nullptr)
                    return;
                parts_.fea->interfaces().add_interface(itf.name, host,
                                                       addr.prefix_len());
                added = true;
            });
            if (!added) continue;
            // A configured interface originates its connected route; this
            // is what makes directly-attached BGP nexthops resolvable.
            XrlArgs args;
            args.add("protocol", std::string("connected"))
                .add("net", addr)
                .add("nexthop", host)
                .add("metric", uint32_t{0});
            // Config-driven route pushes are idempotent; let the call
            // contract retry them so one dropped XRL can't desync the RIB
            // from the running config.
            mgr_xr_->call_oneway(
                Xrl::generic("rib", "rib", "1.0", "add_route", args),
                ipc::CallOptions::reliable());
        }
    }

    // ---- static routes (diffed, applied via XRLs to the RIB) ------------
    auto collect_static = [](const ConfigTree& t) {
        std::map<IPv4Net, IPv4> out;
        if (const ConfigNode* s = t.find("protocols/static"))
            for (const ConfigNode& r : s->children)
                out[IPv4Net::must_parse(r.args[0])] =
                    IPv4::must_parse(*r.leaf_value("nexthop"));
        return out;
    };
    auto old_static = collect_static(running_);
    auto new_static = collect_static(tree);
    for (const auto& [net, nh] : old_static) {
        auto it = new_static.find(net);
        if (it == new_static.end() || !(it->second == nh)) {
            XrlArgs args;
            args.add("protocol", std::string("static")).add("net", net);
            mgr_xr_->call_oneway(
                Xrl::generic("rib", "rib", "1.0", "delete_route", args),
                ipc::CallOptions::reliable());
        }
    }
    for (const auto& [net, nh] : new_static) {
        auto it = old_static.find(net);
        if (it == old_static.end() || !(it->second == nh)) {
            XrlArgs args;
            args.add("protocol", std::string("static"))
                .add("net", net)
                .add("nexthop", nh)
                .add("metric", uint32_t{1});
            mgr_xr_->call_oneway(
                Xrl::generic("rib", "rib", "1.0", "add_route", args),
                ipc::CallOptions::reliable());
        }
    }

    apply_rip(running_, tree);
    if (!apply_ospf(running_, tree, error)) return false;
    apply_bgp(tree);

    // ---- graceful-restart grace periods ---------------------------------
    // `grace-period <seconds>;` in a protocol section sets how long the
    // RIB preserves that protocol's routes after its component dies.
    for (const char* section : {"rip", "ospf", "bgp"}) {
        const ConfigNode* n = tree.find(std::string("protocols/") + section);
        if (n == nullptr) continue;
        auto g = n->leaf_value("grace-period");
        if (!g) continue;
        for (const std::string& proto : find_component(section)->protocols) {
            XrlArgs args;
            args.add("protocol", proto)
                .add("seconds",
                     static_cast<uint32_t>(std::atoi(g->c_str())));
            mgr_xr_->call_oneway(
                Xrl::generic("rib", "rib", "1.0", "set_grace_period", args),
                ipc::CallOptions::reliable());
        }
    }
    return true;
}

void Router::apply_rip(const ConfigTree& from, const ConfigTree& to) {
    // Interfaces diffed; each enable sends a whole-table request — RIP's
    // natural resync after a restart.
    auto old_rip = rip_interfaces(from);
    auto new_rip = rip_interfaces(to);
    run_sync("rip", [&] {
        for (const std::string& ifname : old_rip)
            if (new_rip.count(ifname) == 0)
                parts_.rip->disable_interface(ifname);
        for (const std::string& ifname : new_rip)
            if (old_rip.count(ifname) == 0)
                parts_.rip->enable_interface(ifname);
    });
}

bool Router::apply_ospf(const ConfigTree& from, const ConfigTree& to,
                        std::string* error) {
    // Interfaces diffed, costs applied in place. After a restart,
    // re-enabling interfaces restarts hellos; adjacency re-formation and
    // database exchange re-flood the area's LSAs into the fresh Lsdb
    // (receiving our own pre-restart LSAs bumps our sequence numbers).
    bool ok = true;
    run_sync("ospf", [&] {
        ospf::OspfProcess& ospf = *parts_.ospf;
        if (const ConfigNode* o = to.find("protocols/ospf")) {
            if (auto rid = o->leaf_value("router-id"))
                if (!ospf.set_router_id(IPv4::must_parse(*rid))) {
                    ok = fail(error,
                              "ospf: router-id cannot change while "
                              "interfaces are enabled");
                    return;
                }
            // ECMP width; changing it reschedules SPF with the new clamp.
            if (auto mp = o->leaf_value("max-paths"))
                ospf.set_max_paths(
                    static_cast<uint32_t>(std::atoi(mp->c_str())));
        }
        auto old_ospf = ospf_interfaces(from);
        auto new_ospf = ospf_interfaces(to);
        for (const auto& [ifname, cost] : old_ospf)
            if (new_ospf.find(ifname) == new_ospf.end())
                ospf.disable_interface(ifname);
        for (const auto& [ifname, cost] : new_ospf) {
            auto it = old_ospf.find(ifname);
            if (it == old_ospf.end())
                ospf.enable_interface(ifname, cost);
            else if (it->second != cost)
                ospf.set_interface_cost(ifname, cost);
        }
    });
    return ok;
}

void Router::apply_bgp(const ConfigTree& tree) {
    const ConfigNode* b = tree.find("protocols/bgp");
    if (b == nullptr) return;
    run_sync("bgp", [&] {
        if (parts_.bgp == nullptr) {  // created once
            bgp::BgpProcess::Config& cfg = parts_.bgp_config;
            cfg.local_as = static_cast<bgp::As>(
                std::atoi(b->leaf_value("local-as")->c_str()));
            cfg.bgp_id = IPv4::must_parse(*b->leaf_value("bgp-id"));
            if (b->find("damping") != nullptr) cfg.enable_damping = true;
            if (b->find("multipath") != nullptr) cfg.multipath = true;
            build(*find_component("bgp"));
        }
        // network statements: originate into BGP.
        for (const ConfigNode& c : b->children)
            if (c.name == "network" && c.args.size() == 1)
                if (auto net = IPv4Net::parse(c.args[0]))
                    parts_.bgp->originate(*net, parts_.bgp_config.bgp_id);
    });
    if (!supervisor_->supervising("bgp"))
        supervise("bgp", [this] {
            // Established on every configured session: the peers' table
            // dumps are queued/flowing; the supervisor's settle delay lets
            // them drain before the RIB sweeps.
            for (const BgpLink& l : bgp_links_) {
                bgp::BgpPeer* p = parts_.bgp->peer_session(l.local_id);
                if (p == nullptr || !p->established()) return false;
            }
            return true;
        });
}

void Router::connect_bgp(Router& a, Router& b, ev::Duration latency) {
    if (a.bgp() == nullptr || b.bgp() == nullptr) return;
    auto [ta, tb] = bgp::PipeTransport::make_pair(a.plexus_.loop,
                                                  b.plexus_.loop, latency);
    int ida = a.bgp()->add_peer(peer_config(*a.bgp(), *b.bgp()),
                                std::move(ta));
    int idb = b.bgp()->add_peer(peer_config(*b.bgp(), *a.bgp()),
                                std::move(tb));
    // Remember the session on both sides so a BgpProcess restart can
    // rewire it (see rewire_bgp_sessions).
    a.bgp_links_.push_back({&b, latency, ida, idb});
    b.bgp_links_.push_back({&a, latency, idb, ida});
}

// ---- component supervision -----------------------------------------------

void Router::supervise(const std::string& cls,
                       std::function<bool()> resynced) {
    Supervisor::Spec spec;
    spec.cls = cls;
    spec.protocols = find_component(cls)->protocols;
    spec.restart = [this, cls] { restart(cls); };
    spec.resynced = [this, cls, resynced = std::move(resynced)] {
        bool done = false;
        run_sync(cls, [&] { done = resynced(); });
        return done;
    };
    supervisor_->supervise(std::move(spec));
}

void Router::restart(const std::string& cls) {
    const ComponentEntry& c = *find_component(cls);
    run_sync(cls, [&] {
        c.destroy(parts_);
        xr_.erase(cls);
        build(c);
    });
    // Re-apply the running config: against an empty tree, the section's
    // diff is everything it says.
    if (cls == "rip") apply_rip(ConfigTree(), running_);
    if (cls == "ospf") apply_ospf(ConfigTree(), running_, nullptr);
    if (cls == "bgp") {
        apply_bgp(running_);
        rewire_bgp_sessions();
    }
}

void Router::rewire_bgp_sessions() {
    // The peer drops its half-dead end, both sides get fresh pipes, and
    // establishment triggers the peer's full table dump — BGP's resync.
    for (BgpLink& l : bgp_links_) {
        bgp::BgpProcess& peer = *l.peer->bgp();
        peer.remove_peer(l.remote_id);
        auto [tl, tr] = bgp::PipeTransport::make_pair(
            plexus_.loop, l.peer->plexus_.loop, l.latency);
        l.local_id = parts_.bgp->add_peer(peer_config(*parts_.bgp, peer),
                                          std::move(tl));
        l.remote_id = peer.add_peer(peer_config(peer, *parts_.bgp),
                                    std::move(tr));
        for (BgpLink& rl : l.peer->bgp_links_)
            if (rl.peer == this) {
                rl.local_id = l.remote_id;
                rl.remote_id = l.local_id;
            }
    }
}

}  // namespace xrp::rtrmgr
