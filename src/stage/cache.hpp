// CacheStage: the consistency-checking stage of §5.1.
//
// "We have developed an extra consistency checking stage for debugging
// purposes... just after the outgoing filter bank in the output pipeline
// to each peer, [it] has helped us discover many subtle bugs."
//
// It replicates the add/delete stream into its own table and flags any
// violation of the two consistency rules: a delete with no matching add,
// an add that silently replaces without a delete, or a lookup answer from
// upstream that disagrees with the stream. It forwards everything
// unchanged, so it can be plumbed anywhere. Tests plumb one after every
// composite stage; production pipelines may include it when chasing a
// suspected consistency bug.
#ifndef XRP_STAGE_CACHE_HPP
#define XRP_STAGE_CACHE_HPP

#include <string>
#include <vector>

#include "net/trie.hpp"
#include "stage/stage.hpp"

namespace xrp::stage {

template <class A>
class CacheStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;

    explicit CacheStage(std::string name) : name_(std::move(name)) {}

    void add_route(const RouteT& route, RouteStage<A>*) override {
        if (cache_.find(route.net) != nullptr)
            violation("add of " + route.net.str() +
                      " replaces an existing route without a delete");
        cache_.insert(route.net, route);
        this->forward_add(route);
    }

    void delete_route(const RouteT& route, RouteStage<A>*) override {
        const RouteT* held = cache_.find(route.net);
        if (held == nullptr) {
            violation("delete of " + route.net.str() +
                      " with no matching add");
        } else {
            if (!(*held == route))
                violation("delete of " + route.net.str() +
                          " does not match the added route");
            cache_.erase(route.net);
        }
        this->forward_delete(route);
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        // Rule (2): upstream's answer must agree with the stream we saw.
        auto up = this->lookup_upstream(net);
        const RouteT* held = cache_.find(net);
        if (held == nullptr) {
            if (up)
                const_cast<CacheStage*>(this)->violation(
                    "lookup of " + net.str() +
                    " found a route upstream that was never added");
        } else {
            if (!up || !(*up == *held))
                const_cast<CacheStage*>(this)->violation(
                    "lookup of " + net.str() +
                    " disagrees with the add/delete stream");
        }
        // Answer from our replica: it is by construction downstream-consistent.
        return held != nullptr ? std::optional<RouteT>(*held) : std::nullopt;
    }

    std::string name() const override { return name_; }

    bool consistent() const { return violations_.empty(); }
    const std::vector<std::string>& violations() const { return violations_; }
    size_t route_count() const { return cache_.size(); }

private:
    void violation(std::string what) {
        violations_.push_back(name_ + ": " + std::move(what));
    }

    std::string name_;
    net::RouteTrie<A, RouteT> cache_;
    std::vector<std::string> violations_;
};

}  // namespace xrp::stage

#endif
