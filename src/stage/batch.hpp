// RouteBatch: the bulk/delta unit of the batched stage API.
//
// The paper's three-message API moves one route per virtual call; at
// backbone scale (1M+ routes with churn) per-route dispatch, journaling
// and per-route XRL pushes dominate the table-download path. A
// RouteBatch is an *ordered* list of add/delete/replace entries that
// flows through the pipeline as one message (`RouteStage::push_batch`).
// Ordering is load-bearing: replaying the entries one by one through
// the per-route calls must be semantically identical to any native
// batch handling. The default push_batch runs exactly that unroll
// through the stage's own handlers and forwards what they emit as one
// batch; only stages that can skip per-route work override it.
//
// A replace entry is the batch-level spelling of the paper's
// delete(old)+add(new) pair: `old_route` is what downstream currently
// holds, `route` is the replacement. Stages that unroll emit both
// messages; stages that handle batches natively may forward the pair
// inside one downstream batch but must never drop either half (the §5.1
// consistency rules still bind per entry).
//
// `coalesce()` folds multiple entries for the same prefix into the last
// surviving operation. That changes the *message* stream (fewer
// transients), so it is only used at net-effect-safe boundaries — wire
// senders framing a batch for a peer process — never inside a stage
// that a consistency checker might be watching.
#ifndef XRP_STAGE_BATCH_HPP
#define XRP_STAGE_BATCH_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stage/route.hpp"

namespace xrp::stage {

enum class BatchOp : uint8_t { kAdd, kDelete, kReplace };

template <class A>
struct BatchEntry {
    BatchOp op = BatchOp::kAdd;
    // kAdd/kReplace: the route being installed. kDelete: the route being
    // withdrawn (a copy of what downstream holds, per consistency rule 1).
    Route<A> route;
    // kReplace only: the previously-installed route the replacement
    // supersedes.
    Route<A> old_route;
};

template <class A>
class RouteBatch {
public:
    using RouteT = Route<A>;
    using EntryT = BatchEntry<A>;

    RouteBatch() = default;

    void reserve(size_t n) { entries_.reserve(n); }
    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }
    void clear() { entries_.clear(); }

    void add(RouteT route) {
        entries_.push_back(EntryT{BatchOp::kAdd, std::move(route), {}});
    }
    void del(RouteT route) {
        entries_.push_back(EntryT{BatchOp::kDelete, std::move(route), {}});
    }
    void replace(RouteT old_route, RouteT new_route) {
        entries_.push_back(
            EntryT{BatchOp::kReplace, std::move(new_route),
                   std::move(old_route)});
    }
    void push(EntryT e) { entries_.push_back(std::move(e)); }

    std::vector<EntryT>& entries() { return entries_; }
    const std::vector<EntryT>& entries() const { return entries_; }

    // Counts used by stages that amortize telemetry: adds counts kAdd +
    // kReplace (each emits one add downstream), deletes counts kDelete +
    // kReplace.
    size_t add_count() const {
        size_t n = 0;
        for (const auto& e : entries_)
            if (e.op != BatchOp::kDelete) ++n;
        return n;
    }
    size_t delete_count() const {
        size_t n = 0;
        for (const auto& e : entries_)
            if (e.op != BatchOp::kAdd) ++n;
        return n;
    }

    // Folds churn within the batch to the net effect per prefix:
    //   add then delete            -> nothing
    //   delete then add            -> replace(old=deleted, new=added)
    //   add/replace then replace   -> one add/replace with the final route
    //   delete after replace       -> delete of the original old route
    // Relative order of surviving prefixes follows each prefix's *first*
    // appearance, keeping the stream deterministic. Only safe where the
    // consumer cares about final state, not the transient message list
    // (wire framing, FIB install).
    void coalesce() {
        if (entries_.size() < 2) return;
        // Per-prefix folded state: the route downstream held before the
        // batch (if any was deleted/replaced) and the route it should
        // hold after (if any survives).
        struct Folded {
            std::optional<RouteT> before;  // first delete/replace old seen
            std::optional<RouteT> after;   // last surviving add
            bool saw_delete = false;
            size_t first_index = 0;
        };
        std::map<net::IpNet<A>, Folded> by_net;
        std::vector<const net::IpNet<A>*> order;
        for (size_t i = 0; i < entries_.size(); ++i) {
            const EntryT& e = entries_[i];
            auto [it, fresh] = by_net.try_emplace(e.route.net);
            Folded& f = it->second;
            if (fresh) {
                f.first_index = i;
                order.push_back(&it->first);
            }
            switch (e.op) {
            case BatchOp::kAdd:
                f.after = e.route;
                break;
            case BatchOp::kDelete:
                if (!f.before && !f.after) f.before = e.route;
                f.after.reset();
                f.saw_delete = true;
                break;
            case BatchOp::kReplace:
                if (!f.before && !f.after) f.before = e.old_route;
                f.after = e.route;
                f.saw_delete = true;
                break;
            }
        }
        std::vector<EntryT> folded;
        folded.reserve(by_net.size());
        for (const auto* netp : order) {
            Folded& f = by_net.find(*netp)->second;
            if (f.before && f.after) {
                folded.push_back(EntryT{BatchOp::kReplace, std::move(*f.after),
                                        std::move(*f.before)});
            } else if (f.after) {
                folded.push_back(
                    EntryT{BatchOp::kAdd, std::move(*f.after), {}});
            } else if (f.before && f.saw_delete) {
                folded.push_back(
                    EntryT{BatchOp::kDelete, std::move(*f.before), {}});
            }
            // else: add+delete within the batch — downstream never sees it.
        }
        entries_ = std::move(folded);
    }

    // ---- wire framing ---------------------------------------------------
    // One entry per line; fields space-separated (NexthopSet text uses
    // '|' and '@', never spaces):
    //   a <net> <nexthops> <metric>
    //   d <net> <nexthops> <metric>
    //   r <net> <nexthops> <metric> <old_nexthops> <old_metric>
    // Protocol/admin-distance/source are batch-level context carried by
    // the XRL verb, not per entry — a batch always comes from one origin.
    std::string encode() const {
        std::ostringstream os;
        for (const auto& e : entries_) {
            switch (e.op) {
            case BatchOp::kAdd:
                os << 'a';
                break;
            case BatchOp::kDelete:
                os << 'd';
                break;
            case BatchOp::kReplace:
                os << 'r';
                break;
            }
            os << ' ' << e.route.net.str() << ' '
               << e.route.nexthop_set().str() << ' ' << e.route.metric;
            if (e.op == BatchOp::kReplace)
                os << ' ' << e.old_route.nexthop_set().str() << ' '
                   << e.old_route.metric;
            os << '\n';
        }
        return os.str();
    }

    static std::optional<RouteBatch> decode(const std::string& text) {
        RouteBatch batch;
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line)) {
            if (line.empty()) continue;
            std::istringstream ls(line);
            std::string op, net_s, nh_s;
            uint32_t metric = 0;
            if (!(ls >> op >> net_s >> nh_s >> metric)) return std::nullopt;
            auto net = net::IpNet<A>::parse(net_s);
            auto nhs = net::NexthopSet<A>::parse(nh_s);
            if (!net || !nhs) return std::nullopt;
            RouteT r;
            r.net = *net;
            r.metric = metric;
            r.set_nexthops(*nhs);
            if (op == "a") {
                batch.add(std::move(r));
            } else if (op == "d") {
                batch.del(std::move(r));
            } else if (op == "r") {
                std::string old_nh_s;
                uint32_t old_metric = 0;
                if (!(ls >> old_nh_s >> old_metric)) return std::nullopt;
                auto old_nhs = net::NexthopSet<A>::parse(old_nh_s);
                if (!old_nhs) return std::nullopt;
                RouteT old_r;
                old_r.net = *net;
                old_r.metric = old_metric;
                old_r.set_nexthops(*old_nhs);
                batch.replace(std::move(old_r), std::move(r));
            } else {
                return std::nullopt;
            }
        }
        return batch;
    }

private:
    std::vector<EntryT> entries_;
};

using RouteBatch4 = RouteBatch<net::IPv4>;
using RouteBatch6 = RouteBatch<net::IPv6>;

}  // namespace xrp::stage

#endif
