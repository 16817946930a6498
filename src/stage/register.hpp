// RegisterStage: interest registration in RIB routes (§5.2.1, Figure 8).
//
// BGP wants to know how specific nexthop *addresses* are routed (for
// hot-potato decisions); PIM-SM wants the reverse path to sources. Rather
// than stream every route to every client, or answer a query per packet,
// the RIB answers an address query with the matching route *plus the
// largest enclosing subnet for which that answer holds* — computed so it
// is never overlayed by a more specific route. The client caches the
// answer for the whole subnet. When any route change touches a registered
// subnet, the stage sends that client a "cache invalidated" message and
// drops the registration; the client re-queries on demand.
//
// Because no two validity subnets ever overlap (the paper notes this),
// clients can use balanced trees for their caches; on our side a trie of
// registrations makes the affected-set computation O(path + hits).
#ifndef XRP_STAGE_REGISTER_HPP
#define XRP_STAGE_REGISTER_HPP

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/trie.hpp"
#include "stage/stage.hpp"

namespace xrp::stage {

template <class A>
class RegisterStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;
    // Invalidation callback: the registered validity subnet whose answer
    // is no longer trustworthy.
    using InvalidateCallback = std::function<void(const Net& valid_subnet)>;

    explicit RegisterStage(std::string name) : name_(std::move(name)) {}

    struct Answer {
        bool has_route = false;
        RouteT route{};     // valid when has_route
        Net valid_subnet{};  // cacheable range for this answer
    };

    // Registers `client`'s interest in how `addr` is routed. The client
    // may cache the answer for every address in `valid_subnet` until its
    // callback fires for that subnet.
    Answer register_interest(A addr, uint64_t client_id,
                             InvalidateCallback cb) {
        auto r = replica_.register_lookup(addr);
        Answer ans;
        ans.valid_subnet = r.valid_subnet;
        if (r.route != nullptr) {
            ans.has_route = true;
            ans.route = *r.route;
        }
        Registration* reg = registrations_.find(r.valid_subnet);
        if (reg == nullptr) {
            registrations_.insert(r.valid_subnet, Registration{});
            reg = registrations_.find(r.valid_subnet);
        }
        reg->clients[client_id] = std::move(cb);
        return ans;
    }

    void unregister_interest(const Net& valid_subnet, uint64_t client_id) {
        Registration* reg = registrations_.find(valid_subnet);
        if (reg == nullptr) return;
        reg->clients.erase(client_id);
        if (reg->clients.empty()) registrations_.erase(valid_subnet);
    }

    size_t registration_count() const { return registrations_.size(); }

    // ---- stage interface ------------------------------------------------
    void add_route(const RouteT& route, RouteStage<A>*) override {
        replica_.insert(route.net, route);
        this->forward_add(route);
        invalidate_overlapping(route.net);
    }

    void delete_route(const RouteT& route, RouteStage<A>*) override {
        replica_.erase(route.net);
        this->forward_delete(route);
        invalidate_overlapping(route.net);
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        const RouteT* r = replica_.find(net);
        return r != nullptr ? std::optional<RouteT>(*r) : std::nullopt;
    }

    std::optional<RouteT> lookup_route_lpm(A addr) const override {
        const RouteT* r = replica_.lookup(addr);
        return r != nullptr ? std::optional<RouteT>(*r) : std::nullopt;
    }

    std::string name() const override { return name_; }

private:
    struct Registration {
        std::map<uint64_t, InvalidateCallback> clients;
    };

    void invalidate_overlapping(const Net& changed) {
        // A change to `changed` affects a registration when the two
        // overlap: either the registration's subnet contains the changed
        // prefix, or vice versa.
        std::vector<Net> affected;
        // Registrations at or below the changed prefix.
        registrations_.for_each_within(
            changed,
            [&](const Net& n, const Registration&) { affected.push_back(n); });
        // Registrations strictly above it (covering subnets). Since
        // registrations never overlap each other, walking less-specifics
        // finds at most one chain.
        Net cover;
        if (registrations_.find_less_specific(changed, &cover) != nullptr)
            affected.push_back(cover);

        for (const Net& n : affected) {
            Registration* reg = registrations_.find(n);
            if (reg == nullptr) continue;
            auto clients = std::move(reg->clients);
            registrations_.erase(n);
            for (auto& [id, cb] : clients) cb(n);
        }
    }

    std::string name_;
    // Replica of the winning-route stream passing through this stage;
    // answers register queries without bothering upstream.
    net::RouteTrie<A, RouteT> replica_;
    net::RouteTrie<A, Registration> registrations_;
};

}  // namespace xrp::stage

#endif
