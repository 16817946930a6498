// RedistStage: route redistribution tap (§3, §5.2).
//
// "A key instrument of routing policy is the process of route
// redistribution, where routes from one routing protocol that match
// certain policy filters are redistributed into another routing protocol."
// The RIB, seeing everyone's routes, hosts these as dynamic stages: a
// RedistStage forwards the main stream unchanged and additionally feeds
// (add/delete) events for routes matching its predicate to a sink — the
// XRL client that asked for redistribution. The predicate must be a pure
// function of the route so adds and deletes stay symmetric.
#ifndef XRP_STAGE_REDIST_HPP
#define XRP_STAGE_REDIST_HPP

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "stage/stage.hpp"

namespace xrp::stage {

template <class A>
class RedistStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;
    using Predicate = std::function<bool(const RouteT&)>;
    using Sink = std::function<void(bool is_add, const RouteT&)>;

    RedistStage(std::string name, Predicate pred, Sink sink)
        : name_(std::move(name)),
          pred_(std::move(pred)),
          sink_(std::move(sink)) {}

    void add_route(const RouteT& route, RouteStage<A>*) override {
        this->forward_add(route);
        if (pred_(route)) sink_(true, route);
    }

    void delete_route(const RouteT& route, RouteStage<A>*) override {
        this->forward_delete(route);
        if (pred_(route)) sink_(false, route);
    }

    // The main stream is forwarded whole, then the sink sees the entries
    // the predicate matches (a replace whose halves disagree on the
    // predicate degrades to the surviving half, as in the per-route
    // unroll).
    void push_batch(RouteBatch<A>&& batch, RouteStage<A>*) override {
        std::vector<std::pair<bool, RouteT>> tap;
        for (const auto& e : batch.entries()) {
            if (e.op != BatchOp::kAdd) {
                const RouteT& gone =
                    e.op == BatchOp::kReplace ? e.old_route : e.route;
                if (pred_(gone)) tap.emplace_back(false, gone);
            }
            if (e.op != BatchOp::kDelete && pred_(e.route))
                tap.emplace_back(true, e.route);
        }
        this->forward_batch(std::move(batch));
        for (const auto& [is_add, r] : tap) sink_(is_add, r);
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        return this->lookup_upstream(net);
    }

    std::string name() const override { return name_; }

private:
    std::string name_;
    Predicate pred_;
    Sink sink_;
};

}  // namespace xrp::stage

#endif
