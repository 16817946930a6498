// FilterStage: a bank of route filters (the Peer-In / Peer-Out "Filter
// Bank" boxes of Figures 4-5).
//
// Filters are *pure deterministic functions* of the route; that is the
// whole consistency story. An add runs the filters and is forwarded
// (possibly modified) or dropped; a delete runs the *same* filters so the
// retraction matches byte-for-byte whatever the add produced; a lookup
// result from upstream is passed through the filters so rule (2) holds.
// Because nothing is stored, filter banks are free to appear anywhere in
// a pipeline.
//
// Changing the bank's filters does not retroactively fix routes already
// downstream — the owner re-pumps the origin through the pipeline (see
// OriginStage::repump and the BGP process's background refilter task).
#ifndef XRP_STAGE_FILTER_HPP
#define XRP_STAGE_FILTER_HPP

#include <functional>
#include <string>
#include <vector>

#include "stage/stage.hpp"

namespace xrp::stage {

template <class A>
class FilterStage : public RouteStage<A> {
public:
    using typename RouteStage<A>::RouteT;
    using typename RouteStage<A>::Net;
    // Returns false to drop the route; may modify attributes in place.
    // MUST be deterministic: same input route -> same outcome, always.
    using Filter = std::function<bool(RouteT&)>;

    explicit FilterStage(std::string name) : name_(std::move(name)) {}

    void add_filter(Filter f) { filters_.push_back(std::move(f)); }
    void set_filters(std::vector<Filter> fs) { filters_ = std::move(fs); }
    size_t filter_count() const { return filters_.size(); }

    void add_route(const RouteT& route, RouteStage<A>*) override {
        RouteT r = route;
        if (apply(r)) this->forward_add(r);
    }

    void delete_route(const RouteT& route, RouteStage<A>*) override {
        RouteT r = route;
        if (apply(r)) this->forward_delete(r);
    }

    std::optional<RouteT> lookup_route(const Net& net) const override {
        auto r = this->lookup_upstream(net);
        if (!r) return std::nullopt;
        if (!apply(*r)) return std::nullopt;  // filtered: as if absent
        return r;
    }

    std::string name() const override { return name_; }

private:
    bool apply(RouteT& r) const {
        for (const Filter& f : filters_)
            if (!f(r)) return false;
        return true;
    }

    std::string name_;
    std::vector<Filter> filters_;
};

}  // namespace xrp::stage

#endif
