// MergeStage: the RIB's distributed decision-making (§5.2).
//
// Where BGP needs a single Decision stage that sees every alternative,
// the RIB "makes its decision purely on the basis of a single
// administrative distance metric. This single metric allows more
// distributed decision-making": pairwise merges, each picking between two
// parents. Merge stages are stateless — on every add/delete they consult
// the *other* parent via lookup_route and emit exactly the delete/add
// pair that keeps downstream seeing only winners.
#ifndef XRP_STAGE_MERGE_HPP
#define XRP_STAGE_MERGE_HPP

#include <string>

#include "stage/stage.hpp"

namespace xrp::stage {

// Deterministic total preference order used by merge decisions: lower
// admin distance wins, then lower metric, then protocol name, then lower
// nexthop — the tail exists only to make ties stable.
template <class A>
bool route_preferred(const Route<A>& x, const Route<A>& y) {
    if (x.admin_distance != y.admin_distance)
        return x.admin_distance < y.admin_distance;
    if (x.metric != y.metric) return x.metric < y.metric;
    if (x.protocol != y.protocol) return x.protocol < y.protocol;
    return x.nexthop < y.nexthop;
}

template <class A>
class MergeStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;

    explicit MergeStage(std::string name) : name_(std::move(name)) {}

    // A merge has exactly two parents; wire them with set_parents.
    void set_parents(RouteStage<A>* a, RouteStage<A>* b) {
        a_ = a;
        b_ = b;
        a->set_downstream(this);
        b->set_downstream(this);
    }

    // Dynamic-stage splicing (§5.1.2) on a parent edge. plumb_between /
    // unplumb announce the new upstream via set_upstream; a merge must
    // translate that into adopting the stage as the matching parent, or
    // other_parent() would keep consulting the stage that was spliced
    // around. Splice-in: the new stage's upstream is a current parent.
    // Splice-out: a current parent's upstream is the stage handed to us.
    void set_upstream(RouteStage<A>* s) override {
        if (s == nullptr || s == a_ || s == b_) return;
        if (s->upstream() != nullptr && s->upstream() == a_) {
            a_ = s;  // splice-in on edge a
        } else if (s->upstream() != nullptr && s->upstream() == b_) {
            b_ = s;  // splice-in on edge b
        } else if (a_ != nullptr && a_->upstream() == s) {
            a_ = s;  // splice-out on edge a
        } else if (b_ != nullptr && b_->upstream() == s) {
            b_ = s;  // splice-out on edge b
        } else {
            assert(false && "MergeStage: set_upstream is not a parent splice");
        }
    }

    void add_route(const RouteT& route, RouteStage<A>* caller) override {
        auto other = other_parent(caller)->lookup_route(route.net);
        if (!other) {
            this->forward_add(route);
            return;
        }
        if (route_preferred(*other, route)) return;  // new route loses: drop
        // New route beats the incumbent downstream currently holds.
        this->forward_delete(*other);
        this->forward_add(route);
    }

    void delete_route(const RouteT& route, RouteStage<A>* caller) override {
        auto other = other_parent(caller)->lookup_route(route.net);
        if (other && route_preferred(*other, route))
            return;  // the deleted route had lost: downstream never saw it
        this->forward_delete(route);
        if (other) this->forward_add(*other);  // promote the former loser
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        auto ra = a_ != nullptr ? a_->lookup_route(net) : std::nullopt;
        auto rb = b_ != nullptr ? b_->lookup_route(net) : std::nullopt;
        if (!ra) return rb;
        if (!rb) return ra;
        return route_preferred(*ra, *rb) ? ra : rb;
    }

    std::optional<RouteT> lookup_route_lpm(A addr) const override {
        auto ra = a_ != nullptr ? a_->lookup_route_lpm(addr) : std::nullopt;
        auto rb = b_ != nullptr ? b_->lookup_route_lpm(addr) : std::nullopt;
        if (!ra) return rb;
        if (!rb) return ra;
        // More specific match wins regardless of preference; equal length
        // falls back to preference order (matches downstream stream).
        if (ra->net.prefix_len() != rb->net.prefix_len())
            return ra->net.prefix_len() > rb->net.prefix_len() ? ra : rb;
        return route_preferred(*ra, *rb) ? ra : rb;
    }

    std::string name() const override { return name_; }

private:
    RouteStage<A>* other_parent(RouteStage<A>* caller) const {
        return caller == a_ ? b_ : a_;
    }

    std::string name_;
    RouteStage<A>* a_ = nullptr;
    RouteStage<A>* b_ = nullptr;
};

}  // namespace xrp::stage

#endif
