// Ablation: the route trie (§5.3) under backbone-table conditions —
// insert/LPM/exact/erase throughput at 146k routes, the cost of safe
// iterators vs plain traversal, and register_lookup (Figure 8 queries).
// The BM_Trie500k* cases hold what the RIB and FEA tables hold during a
// full download: 500k stage::Route4 values, probed in random order, so
// each exact-prefix operation starts from cold cache lines.
// google-benchmark micro-harness.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include <random>

#include "net/trie.hpp"
#include "report.hpp"
#include "sim/routefeed.hpp"
#include "stage/route.hpp"

using namespace xrp;
using net::IPv4;
using net::IPv4Net;

namespace {

const std::vector<IPv4Net>& table_prefixes() {
    static const auto p = sim::generate_prefixes(146515, 42);
    return p;
}

net::RouteTrie<IPv4, int>& loaded_trie() {
    static net::RouteTrie<IPv4, int>* trie = [] {
        auto* t = new net::RouteTrie<IPv4, int>();
        int i = 0;
        for (const auto& net : table_prefixes()) t->insert(net, i++);
        return t;
    }();
    return *trie;
}

constexpr size_t kBigTable = 500000;
constexpr size_t kFreshPrefixes = 100000;

// kBigTable table prefixes followed by kFreshPrefixes never inserted.
const std::vector<IPv4Net>& big_prefixes() {
    static const auto p =
        sim::generate_prefixes(kBigTable + kFreshPrefixes, 43);
    return p;
}

stage::Route4 route_for(const IPv4Net& net, uint32_t metric) {
    stage::Route4 r;
    r.net = net;
    r.nexthop = IPv4(0xc0000201u + (metric & 0xff));  // 192.0.2.x
    r.metric = metric;
    r.admin_distance = 20;
    r.protocol = "ebgp";
    return r;
}

net::RouteTrie<IPv4, stage::Route4>& big_trie() {
    static auto* trie = [] {
        auto* t = new net::RouteTrie<IPv4, stage::Route4>();
        const auto& p = big_prefixes();
        for (size_t i = 0; i < kBigTable; ++i)
            t->insert(p[i], route_for(p[i], static_cast<uint32_t>(i)));
        return t;
    }();
    return *trie;
}

// Table prefixes in a random order unrelated to insertion (and so to
// arena placement).
const std::vector<IPv4Net>& big_probe_order() {
    static const auto order = [] {
        const auto& p = big_prefixes();
        std::vector<IPv4Net> o(p.begin(), p.begin() + kBigTable);
        std::shuffle(o.begin(), o.end(), std::mt19937(11));
        return o;
    }();
    return order;
}

}  // namespace

static void BM_TrieInsertErase(benchmark::State& state) {
    auto& trie = loaded_trie();
    const auto& prefixes = table_prefixes();
    size_t i = 0;
    for (auto _ : state) {
        const IPv4Net& net = prefixes[i % prefixes.size()];
        trie.erase(net);
        trie.insert(net, 1);
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_TrieInsertErase);

// The download side: a whole 500k-route table built from empty, in
// generation (random) order. One item = one new-prefix insert.
static void BM_Trie500kLoad(benchmark::State& state) {
    const auto& p = big_prefixes();
    for (auto _ : state) {
        auto t = std::make_unique<net::RouteTrie<IPv4, stage::Route4>>();
        for (size_t i = 0; i < kBigTable; ++i)
            t->insert(p[i], route_for(p[i], static_cast<uint32_t>(i)));
        benchmark::DoNotOptimize(t->size());
        state.PauseTiming();  // teardown is not part of the load
        t.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kBigTable));
}
BENCHMARK(BM_Trie500kLoad);

static void BM_Trie500kExactFind(benchmark::State& state) {
    auto& trie = big_trie();
    const auto& order = big_probe_order();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(trie.find(order[i++ % order.size()]));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    // What the table costs to hold, per route.
    const double routes = static_cast<double>(trie.size());
    state.counters["arena_B_per_route"] =
        static_cast<double>(trie.arena_bytes()) / routes;
    state.counters["index_B_per_route"] =
        static_cast<double>(trie.index_bytes()) / routes;
}
BENCHMARK(BM_Trie500kExactFind);

// A §5.1 replace as every table on the route path sees it: delete(old)
// then add(new) of the same prefix. One item = one erase + one insert.
static void BM_Trie500kSamePrefixReplace(benchmark::State& state) {
    auto& trie = big_trie();
    const auto& order = big_probe_order();
    size_t i = 0;
    for (auto _ : state) {
        const IPv4Net& net = order[i % order.size()];
        trie.erase(net);
        trie.insert(net, route_for(net, static_cast<uint32_t>(i)));
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Trie500kSamePrefixReplace);

// Insert of a prefix the table does not hold, then its withdrawal so the
// table stays at 500k. One item = one new-prefix insert + its erase.
static void BM_Trie500kNewPrefixInsert(benchmark::State& state) {
    auto& trie = big_trie();
    const auto& p = big_prefixes();
    size_t i = 0;
    for (auto _ : state) {
        const IPv4Net& net = p[kBigTable + i % kFreshPrefixes];
        trie.insert(net, route_for(net, static_cast<uint32_t>(i)));
        trie.erase(net);
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Trie500kNewPrefixInsert);

static void BM_TrieLongestPrefixMatch(benchmark::State& state) {
    auto& trie = loaded_trie();
    std::mt19937 rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(trie.lookup(IPv4(rng())));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieLongestPrefixMatch);

static void BM_TrieExactMatch(benchmark::State& state) {
    auto& trie = loaded_trie();
    const auto& prefixes = table_prefixes();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(trie.find(prefixes[i % prefixes.size()]));
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieExactMatch);

static void BM_TrieRegisterLookup(benchmark::State& state) {
    // The Figure-8 query: LPM + largest-enclosing-valid-subnet.
    auto& trie = loaded_trie();
    std::mt19937 rng(9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(trie.register_lookup(IPv4(rng())));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieRegisterLookup);

// The same query while kPruneFifoSlots withdrawn prefixes still wait in
// the prune FIFO: the table then holds empty pinned nodes, and deciding
// whether a subtree holds a route may mean looking below it.
static void BM_TrieRegisterLookupPendingPrunes(benchmark::State& state) {
    auto& trie = loaded_trie();
    const auto& prefixes = table_prefixes();
    std::vector<IPv4Net> withdrawn;
    for (size_t i = 0; i < net::kPruneFifoSlots; ++i) {
        withdrawn.push_back(prefixes[(i * 7919) % prefixes.size()]);
        trie.erase(withdrawn.back());
    }
    std::mt19937 rng(9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(trie.register_lookup(IPv4(rng())));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    for (const auto& net : withdrawn) trie.insert(net, 1);
}
BENCHMARK(BM_TrieRegisterLookupPendingPrunes);

static void BM_TrieWalkForEach(benchmark::State& state) {
    auto& trie = loaded_trie();
    for (auto _ : state) {
        size_t n = 0;
        trie.for_each([&](const IPv4Net&, const int&) { ++n; });
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(trie.size()));
}
BENCHMARK(BM_TrieWalkForEach);

static void BM_TrieWalkSafeIterator(benchmark::State& state) {
    // The §5.3 safe iterator pays refcount maintenance per step; this
    // quantifies the overhead vs the recursive walk above.
    auto& trie = loaded_trie();
    for (auto _ : state) {
        size_t n = 0;
        for (auto it = trie.begin(); !it.at_end(); ++it) ++n;
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(trie.size()));
}
BENCHMARK(BM_TrieWalkSafeIterator);

// Accepts the suite-wide --quick flag by mapping it onto a short
// --benchmark_min_time before handing off to google-benchmark.
int main(int argc, char** argv) {
    std::vector<char*> args(argv, argv + argc);
    static char min_time[] = "--benchmark_min_time=0.05";
    for (auto& a : args)
        if (std::string_view(a) == "--quick") a = min_time;
    int new_argc = static_cast<int>(args.size());
    benchmark::Initialize(&new_argc, args.data());
    xrp::bench::Report report("trie");
    xrp::bench::GBenchReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
