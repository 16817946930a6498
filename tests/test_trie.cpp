// Tests for the Patricia route trie and its safe iterators (§5.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "net/trie.hpp"

using namespace xrp::net;
using Trie = RouteTrie<IPv4, int>;

namespace {

IPv4Net net(const char* s) { return IPv4Net::must_parse(s); }
IPv4 addr(const char* s) { return IPv4::must_parse(s); }

std::vector<std::pair<IPv4Net, int>> collect(const Trie& t) {
    std::vector<std::pair<IPv4Net, int>> out;
    t.for_each([&](const IPv4Net& n, int v) { out.emplace_back(n, v); });
    return out;
}

}  // namespace

TEST(Trie, InsertFindErase) {
    Trie t;
    EXPECT_TRUE(t.empty());
    EXPECT_TRUE(t.insert(net("10.0.0.0/8"), 1));
    EXPECT_TRUE(t.insert(net("10.1.0.0/16"), 2));
    EXPECT_FALSE(t.insert(net("10.1.0.0/16"), 3));  // overwrite
    EXPECT_EQ(t.size(), 2u);
    ASSERT_NE(t.find(net("10.1.0.0/16")), nullptr);
    EXPECT_EQ(*t.find(net("10.1.0.0/16")), 3);
    EXPECT_EQ(t.find(net("10.2.0.0/16")), nullptr);
    EXPECT_TRUE(t.erase(net("10.1.0.0/16")));
    EXPECT_FALSE(t.erase(net("10.1.0.0/16")));
    EXPECT_EQ(t.size(), 1u);
}

TEST(Trie, LongestPrefixMatch) {
    Trie t;
    t.insert(net("0.0.0.0/0"), 0);
    t.insert(net("128.16.0.0/16"), 16);
    t.insert(net("128.16.0.0/18"), 18);
    t.insert(net("128.16.128.0/17"), 17);

    IPv4Net matched;
    const int* v = t.lookup(addr("128.16.32.1"), &matched);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 18);
    EXPECT_EQ(matched.str(), "128.16.0.0/18");

    v = t.lookup(addr("128.16.64.1"), &matched);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 16);  // /18 doesn't cover .64, /17 doesn't either

    v = t.lookup(addr("128.16.200.1"), &matched);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 17);

    v = t.lookup(addr("1.1.1.1"), &matched);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 0);  // default route
}

TEST(Trie, LookupWithNoDefaultReturnsNull) {
    Trie t;
    t.insert(net("10.0.0.0/8"), 1);
    EXPECT_EQ(t.lookup(addr("11.0.0.1")), nullptr);
}

TEST(Trie, FindLessSpecific) {
    Trie t;
    t.insert(net("128.16.0.0/16"), 16);
    t.insert(net("128.16.0.0/18"), 18);
    IPv4Net matched;
    const int* v = t.find_less_specific(net("128.16.0.0/18"), &matched);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 16);
    EXPECT_EQ(t.find_less_specific(net("128.16.0.0/16")), nullptr);
    // A less-specific query for an absent subnet still finds the cover.
    v = t.find_less_specific(net("128.16.32.0/24"), &matched);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 18);
}

TEST(Trie, HasRouteWithin) {
    Trie t;
    t.insert(net("128.16.192.0/18"), 1);
    EXPECT_TRUE(t.has_route_within(net("128.16.0.0/16")));
    EXPECT_TRUE(t.has_route_within(net("128.16.192.0/18")));
    EXPECT_FALSE(t.has_route_within(net("128.16.0.0/18")));
    EXPECT_FALSE(t.has_route_within(net("10.0.0.0/8")));
    EXPECT_TRUE(t.has_route_within(net("0.0.0.0/0")));
}

// The exact scenario of Figure 8 in the paper.
TEST(Trie, RegisterLookupFigure8) {
    Trie t;
    t.insert(net("128.16.0.0/16"), 1);
    t.insert(net("128.16.0.0/18"), 2);
    t.insert(net("128.16.128.0/17"), 3);
    t.insert(net("128.16.192.0/18"), 4);

    // Interested in 128.16.32.1: matching route is 128.16.0.0/18 and the
    // whole /18 is cacheable.
    auto r = t.register_lookup(addr("128.16.32.1"));
    ASSERT_NE(r.route, nullptr);
    EXPECT_EQ(*r.route, 2);
    EXPECT_EQ(r.matched_net.str(), "128.16.0.0/18");
    EXPECT_EQ(r.valid_subnet.str(), "128.16.0.0/18");

    // Interested in 128.16.160.1: matching route is 128.16.128.0/17, but
    // 128.16.192.0/18 overlays it, so only 128.16.128.0/18 is cacheable.
    r = t.register_lookup(addr("128.16.160.1"));
    ASSERT_NE(r.route, nullptr);
    EXPECT_EQ(*r.route, 3);
    EXPECT_EQ(r.matched_net.str(), "128.16.128.0/17");
    EXPECT_EQ(r.valid_subnet.str(), "128.16.128.0/18");

    // Inside the overlay itself the /18 is the match and is fully valid.
    r = t.register_lookup(addr("128.16.192.1"));
    ASSERT_NE(r.route, nullptr);
    EXPECT_EQ(*r.route, 4);
    EXPECT_EQ(r.valid_subnet.str(), "128.16.192.0/18");
}

TEST(Trie, RegisterLookupNoMatch) {
    Trie t;
    t.insert(net("128.16.0.0/16"), 1);
    auto r = t.register_lookup(addr("10.1.2.3"));
    EXPECT_EQ(r.route, nullptr);
    // The hole around 10/8 up to the 128/1 boundary is cacheable: validity
    // subnet must not overlap the registered route.
    EXPECT_FALSE(r.valid_subnet.overlaps(net("128.16.0.0/16")));
    EXPECT_TRUE(r.valid_subnet.contains(addr("10.1.2.3")));
}

// Property test: register_lookup's validity subnet is exactly the set of
// addresses whose LPM answer matches, for random tables.
TEST(Trie, RegisterLookupPropertyRandom) {
    std::mt19937 rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        Trie t;
        std::vector<IPv4Net> nets;
        for (int i = 0; i < 40; ++i) {
            uint32_t len = 8 + rng() % 17;  // /8../24
            IPv4 a(rng() & 0xffff0000);     // cluster prefixes
            IPv4Net n(a, len);
            nets.push_back(n);
            t.insert(n, static_cast<int>(i));
        }
        for (int probe = 0; probe < 100; ++probe) {
            IPv4 a(rng());
            auto r = t.register_lookup(a);
            ASSERT_TRUE(r.valid_subnet.contains(a));
            IPv4Net expect_match;
            const int* direct = t.lookup(a, &expect_match);
            if (direct == nullptr) {
                EXPECT_EQ(r.route, nullptr);
            } else {
                ASSERT_NE(r.route, nullptr);
                EXPECT_EQ(expect_match, r.matched_net);
            }
            // Sample addresses inside the validity subnet: all must share
            // the same LPM result.
            for (int s = 0; s < 20; ++s) {
                uint32_t mask =
                    r.valid_subnet.prefix_len() == 0
                        ? 0xffffffffu
                        : ~IPv4::make_prefix(r.valid_subnet.prefix_len())
                               .to_host();
                IPv4 b(r.valid_subnet.masked_addr().to_host() | (rng() & mask));
                IPv4Net m2;
                const int* v2 = t.lookup(b, &m2);
                if (direct == nullptr) {
                    EXPECT_EQ(v2, nullptr)
                        << "probe " << a.str() << " subnet "
                        << r.valid_subnet.str() << " sample " << b.str();
                } else {
                    ASSERT_NE(v2, nullptr) << b.str();
                    EXPECT_EQ(m2, expect_match) << b.str();
                }
            }
        }
    }
}

TEST(Trie, ForEachVisitsInPrefixOrder) {
    Trie t;
    t.insert(net("128.16.128.0/17"), 3);
    t.insert(net("128.16.0.0/16"), 1);
    t.insert(net("10.0.0.0/8"), 0);
    t.insert(net("128.16.0.0/18"), 2);
    auto v = collect(t);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(Trie, IteratorWalksAllRoutes) {
    Trie t;
    std::mt19937 rng(7);
    std::map<IPv4Net, int> reference;
    for (int i = 0; i < 500; ++i) {
        IPv4Net n(IPv4(rng()), 8 + rng() % 25);
        reference[n] = i;
        t.insert(n, i);
    }
    EXPECT_EQ(t.size(), reference.size());
    size_t count = 0;
    for (auto it = t.begin(); !it.at_end(); ++it) {
        ASSERT_TRUE(it.valid());
        auto ref = reference.find(it.key());
        ASSERT_NE(ref, reference.end());
        EXPECT_EQ(ref->second, it.value());
        ++count;
    }
    EXPECT_EQ(count, reference.size());
}

// The §5.3 contract: an erase under a parked iterator must not invalidate
// it, and the iterator must resume at the correct successor.
TEST(Trie, SafeIteratorSurvivesEraseOfCurrent) {
    Trie t;
    t.insert(net("10.0.0.0/8"), 1);
    t.insert(net("20.0.0.0/8"), 2);
    t.insert(net("30.0.0.0/8"), 3);

    auto it = t.begin();
    ASSERT_EQ(it.key().str(), "10.0.0.0/8");
    // Erase the node the iterator is parked on.
    EXPECT_TRUE(t.erase(net("10.0.0.0/8")));
    EXPECT_FALSE(it.valid());  // value is gone...
    ++it;                      // ...but advancing still works
    ASSERT_FALSE(it.at_end());
    EXPECT_EQ(it.key().str(), "20.0.0.0/8");
    EXPECT_EQ(t.find(net("10.0.0.0/8")), nullptr);
}

TEST(Trie, SafeIteratorSurvivesEraseOfNeighbors) {
    Trie t;
    for (int i = 1; i <= 8; ++i)
        t.insert(IPv4Net(IPv4(static_cast<uint32_t>(i) << 24), 8), i);
    auto it = t.begin();
    ++it;
    ++it;  // parked on 3.0.0.0/8
    ASSERT_EQ(it.value(), 3);
    // Erase everything else.
    for (int i = 1; i <= 8; ++i)
        if (i != 3) t.erase(IPv4Net(IPv4(static_cast<uint32_t>(i) << 24), 8));
    EXPECT_TRUE(it.valid());
    EXPECT_EQ(it.value(), 3);
    ++it;
    EXPECT_TRUE(it.at_end());
    EXPECT_EQ(t.size(), 1u);
}

TEST(Trie, DeferredPruneHappensWhenIteratorLeaves) {
    Trie t;
    t.insert(net("10.0.0.0/8"), 1);
    t.insert(net("20.0.0.0/8"), 2);
    {
        auto it = t.begin();  // parked on 10/8
        t.erase(net("10.0.0.0/8"));
        // Node lingers for the iterator: the trie still has internal nodes
        // beyond what routes alone require.
        EXPECT_EQ(t.size(), 1u);
    }  // iterator released -> deferred prune
    // After release, the structure is minimal again: root + one route node.
    EXPECT_LE(t.node_count(), 2u);
}

TEST(Trie, IteratorCopySemantics) {
    Trie t;
    t.insert(net("10.0.0.0/8"), 1);
    t.insert(net("20.0.0.0/8"), 2);
    auto a = t.begin();
    auto b = a;  // both parked on the same node
    t.erase(net("10.0.0.0/8"));
    ++a;
    EXPECT_EQ(a.key().str(), "20.0.0.0/8");
    EXPECT_FALSE(b.valid());
    ++b;
    EXPECT_EQ(b.key().str(), "20.0.0.0/8");
}

// Interleave a "background deletion" iterator with random mutation, the
// way a BGP deletion stage uses the trie, and check nothing corrupts.
TEST(Trie, PropertyRandomChurnWithParkedIterator) {
    std::mt19937 rng(1234);
    for (int trial = 0; trial < 20; ++trial) {
        Trie t;
        std::map<IPv4Net, int> reference;
        auto random_net = [&] {
            return IPv4Net(IPv4(rng() & 0xfffff000), 12 + rng() % 13);
        };
        for (int i = 0; i < 200; ++i) {
            auto n = random_net();
            t.insert(n, i);
            reference[n] = i;
        }
        auto it = t.begin();
        int steps = 0;
        while (!it.at_end()) {
            // Random mutation burst.
            for (int k = 0; k < 5; ++k) {
                auto n = random_net();
                if (rng() & 1) {
                    t.insert(n, steps);
                    reference[n] = steps;
                } else {
                    bool a = t.erase(n);
                    bool b = reference.erase(n) > 0;
                    EXPECT_EQ(a, b);
                }
            }
            ++it;
            ++steps;
            ASSERT_LT(steps, 100000);
        }
        // Afterward the trie must agree with the reference map exactly.
        EXPECT_EQ(t.size(), reference.size());
        auto v = collect(t);
        std::vector<std::pair<IPv4Net, int>> ref(reference.begin(),
                                                 reference.end());
        EXPECT_EQ(v, ref);
        // And every reference lookup agrees.
        for (int probe = 0; probe < 50; ++probe) {
            IPv4 a(rng());
            IPv4Net got_net;
            const int* got = t.lookup(a, &got_net);
            // Reference LPM by scan.
            const std::pair<const IPv4Net, int>* best = nullptr;
            for (const auto& kv : reference)
                if (kv.first.contains(a) &&
                    (best == nullptr ||
                     kv.first.prefix_len() > best->first.prefix_len()))
                    best = &kv;
            if (best == nullptr) {
                EXPECT_EQ(got, nullptr);
            } else {
                ASSERT_NE(got, nullptr);
                EXPECT_EQ(got_net, best->first);
                EXPECT_EQ(*got, best->second);
            }
        }
    }
}

TEST(Trie, SubtreeValueCountsStayConsistent) {
    // has_route_within relies on subtree counters maintained across
    // arbitrary insert/erase orders; cross-check against brute force.
    std::mt19937 rng(99);
    Trie t;
    std::vector<IPv4Net> present;
    for (int step = 0; step < 2000; ++step) {
        IPv4Net n(IPv4(rng() & 0xffffff00), 16 + rng() % 9);
        if (rng() & 1) {
            if (t.insert(n, step)) present.push_back(n);
        } else if (t.erase(n)) {
            present.erase(std::find(present.begin(), present.end(), n));
        }
        if (step % 100 == 0) {
            IPv4Net probe(IPv4(rng() & 0xffff0000), 16);
            bool expect = std::any_of(
                present.begin(), present.end(),
                [&](const IPv4Net& p) { return probe.contains(p); });
            EXPECT_EQ(t.has_route_within(probe), expect) << probe.str();
        }
    }
}

TEST(Trie, IPv6Instantiation) {
    RouteTrie<IPv6, std::string> t;
    t.insert(IPv6Net::must_parse("2001:db8::/32"), "a");
    t.insert(IPv6Net::must_parse("2001:db8:1::/48"), "b");
    IPv6Net matched;
    const std::string* v =
        t.lookup(IPv6::must_parse("2001:db8:1::42"), &matched);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "b");
    v = t.lookup(IPv6::must_parse("2001:db8:2::42"), &matched);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "a");
    EXPECT_EQ(t.lookup(IPv6::must_parse("2001:db9::1")), nullptr);
}

TEST(Trie, SameKeyReplaceRevivesNodeInPlace) {
    // A §5.1 replace reaches every table as delete(old) + add(new) of one
    // prefix: the node must be filled again, not pruned and rebuilt.
    Trie t;
    t.insert(net("10.0.0.0/8"), 1);
    t.insert(net("10.1.0.0/16"), 2);
    t.insert(net("10.2.0.0/16"), 3);
    const int* before = t.find(net("10.2.0.0/16"));
    const size_t nodes = t.node_count();
    EXPECT_TRUE(t.erase(net("10.2.0.0/16")));
    EXPECT_EQ(t.find(net("10.2.0.0/16")), nullptr);
    EXPECT_FALSE(t.has_route_within(net("10.2.0.0/16")));
    EXPECT_EQ(t.pending_prunes(), 1u);
    EXPECT_TRUE(t.insert(net("10.2.0.0/16"), 4));
    EXPECT_EQ(t.node_count(), nodes);
    EXPECT_EQ(t.find(net("10.2.0.0/16")), before);
    EXPECT_EQ(*before, 4);
}

TEST(Trie, PruneFifoBoundsLingeringNodes) {
    // Erasing more leaves than the FIFO holds prunes the oldest: the
    // structure returns to what the live routes need, plus the FIFO.
    Trie t;
    const size_t n = 4 * kPruneFifoSlots;
    for (size_t i = 0; i < n; ++i)
        t.insert(IPv4Net(IPv4(static_cast<uint32_t>(i) << 8), 24), 0);
    t.insert(net("128.0.0.0/8"), 1);
    for (size_t i = 0; i < n; ++i)
        EXPECT_TRUE(t.erase(IPv4Net(IPv4(static_cast<uint32_t>(i) << 8), 24)));
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.pending_prunes(), kPruneFifoSlots);
    EXPECT_LE(t.node_count(), 2 * (t.size() + kPruneFifoSlots) + 1);
    EXPECT_FALSE(t.has_route_within(net("0.0.0.0/8")));
    EXPECT_TRUE(t.has_route_within(net("0.0.0.0/0")));
    // Valueless leaves pinned by the FIFO must not leak into Figure 8
    // answers: only 128/8 constrains the validity subnet.
    auto r = t.register_lookup(addr("0.0.0.1"));
    EXPECT_EQ(r.route, nullptr);
    EXPECT_EQ(r.valid_subnet.str(), "0.0.0.0/1");
}

TEST(Trie, EmptyNodeLeftInTheFifoByAnIteratorHasNoRoute) {
    // A route revived in the FIFO and erased again under a parked
    // iterator: when the iterator leaves, the node still waits in the
    // FIFO and must still count as empty.
    Trie t;
    t.insert(net("10.0.0.0/8"), 1);
    t.insert(net("20.0.0.0/8"), 2);
    t.erase(net("10.0.0.0/8"));
    t.insert(net("10.0.0.0/8"), 3);
    {
        auto it = t.begin();
        ASSERT_EQ(it.key().str(), "10.0.0.0/8");
        t.erase(net("10.0.0.0/8"));
    }
    EXPECT_FALSE(t.has_route_within(net("10.0.0.0/8")));
    EXPECT_TRUE(t.insert(net("10.0.0.0/8"), 4));
    EXPECT_EQ(t.size(), 2u);
}

TEST(Trie, EmptyNodeHeldByIteratorPastTheFifoHasNoRoute) {
    // As above, but the node is pushed out of the FIFO while the iterator
    // still holds it, and every other FIFO entry is live.
    Trie t;
    t.insert(net("10.0.0.0/8"), 1);
    t.insert(net("20.0.0.0/8"), 2);
    t.erase(net("10.0.0.0/8"));
    t.insert(net("10.0.0.0/8"), 3);
    auto it = t.begin();
    ASSERT_EQ(it.key().str(), "10.0.0.0/8");
    t.erase(net("10.0.0.0/8"));
    auto other = [](size_t i) {
        return IPv4Net(IPv4(0x40000000u + (static_cast<uint32_t>(i) << 8)), 24);
    };
    for (size_t i = 0; i < kPruneFifoSlots; ++i) t.insert(other(i), 0);
    for (size_t i = 0; i < kPruneFifoSlots; ++i) t.erase(other(i));
    for (size_t i = 0; i < kPruneFifoSlots; ++i) t.insert(other(i), 0);
    EXPECT_FALSE(t.has_route_within(net("10.0.0.0/8")));
    EXPECT_EQ(t.find(net("10.0.0.0/8")), nullptr);
    ++it;
    EXPECT_EQ(it.key().str(), "20.0.0.0/8");
}

namespace {

// Clustered random keys, so that prefixes nest, share forks and repeat.
template <class A>
struct KeyGen;
template <>
struct KeyGen<IPv4> {
    static IPv4 addr(std::mt19937& rng) {
        return IPv4((rng() & 0xf0f00000u) | (rng() & 0x0000ff00u));
    }
    static IPv4 near(IPv4 a, std::mt19937& rng) {
        return IPv4(a.to_host() ^ (rng() & 0x00ffffffu >> (rng() % 24)));
    }
    static uint32_t len(std::mt19937& rng) { return 4 + rng() % 29; }
};
template <>
struct KeyGen<IPv6> {
    static IPv6 addr(std::mt19937& rng) {
        uint64_t hi = static_cast<uint64_t>(rng() & 0xf0f0ff00u) << 32;
        return IPv6(hi, rng() % 4 == 0 ? rng() : 0);
    }
    static IPv6 near(IPv6 a, std::mt19937& rng) {
        uint64_t flip = static_cast<uint64_t>(rng()) << (rng() % 33);
        return IPv6(a.hi() ^ (flip >> 8), a.lo() ^ rng());
    }
    static uint32_t len(std::mt19937& rng) {
        return rng() % 8 == 0 ? 128 : 8 + rng() % 57;
    }
};

// Randomized differential test of RouteTrie<A, int> against a std::map,
// interleaving every query and mutation with parked safe iterators.
template <class A>
void run_differential(uint32_t seed, int steps) {
    using NetA = IpNet<A>;
    using G = KeyGen<A>;
    std::mt19937 rng(seed);
    std::vector<NetA> pool;
    {
        std::set<NetA> uniq;
        while (uniq.size() < 300) uniq.insert(NetA(G::addr(rng), G::len(rng)));
        pool.assign(uniq.begin(), uniq.end());
    }
    auto pick = [&] { return pool[rng() % pool.size()]; };
    auto probe_addr = [&] {
        return rng() % 4 == 0 ? G::addr(rng)
                              : G::near(pick().masked_addr(), rng);
    };

    RouteTrie<A, int> t;
    std::map<NetA, int> ref;
    std::vector<typename RouteTrie<A, int>::iterator> parked;

    auto ref_lpm = [&](A a) -> const std::pair<const NetA, int>* {
        const std::pair<const NetA, int>* best = nullptr;
        for (const auto& kv : ref)
            if (kv.first.contains(a) &&
                (best == nullptr ||
                 kv.first.prefix_len() > best->first.prefix_len()))
                best = &kv;
        return best;
    };

    for (int step = 0; step < steps; ++step) {
        const uint32_t op = rng() % 12;
        if (op < 3) {  // insert or overwrite
            NetA n = pick();
            int v = step;
            bool was_new = ref.find(n) == ref.end();
            ref[n] = v;
            ASSERT_EQ(t.insert(n, v), was_new) << n.str();
        } else if (op < 5) {  // erase, present or not
            NetA n = pick();
            ASSERT_EQ(t.erase(n), ref.erase(n) > 0) << n.str();
        } else if (op == 5 && !ref.empty()) {  // same-prefix replace
            auto it = ref.begin();
            std::advance(it, rng() % ref.size());
            NetA n = it->first;
            const size_t nodes = t.node_count();
            const size_t pending = t.pending_prunes();
            ASSERT_TRUE(t.erase(n));
            ASSERT_TRUE(t.insert(n, -step));
            it->second = -step;
            // Only a full FIFO's displaced entry may be pruned meanwhile.
            if (pending < kPruneFifoSlots)
                ASSERT_EQ(t.node_count(), nodes) << n.str();
            else
                ASSERT_LE(t.node_count(), nodes) << n.str();
        } else if (op == 6) {  // exact find
            NetA n = pick();
            const int* got = t.find(n);
            auto r = ref.find(n);
            if (r == ref.end()) {
                ASSERT_EQ(got, nullptr) << n.str();
            } else {
                ASSERT_NE(got, nullptr) << n.str();
                ASSERT_EQ(*got, r->second);
            }
        } else if (op == 7) {  // LPM and the Figure 8 query
            A a = probe_addr();
            NetA m;
            const int* got = t.lookup(a, &m);
            const auto* want = ref_lpm(a);
            auto reg = t.register_lookup(a);
            if (want == nullptr) {
                ASSERT_EQ(got, nullptr);
                ASSERT_EQ(reg.route, nullptr);
            } else {
                ASSERT_NE(got, nullptr);
                ASSERT_EQ(m, want->first);
                ASSERT_EQ(*got, want->second);
                ASSERT_NE(reg.route, nullptr);
                ASSERT_EQ(reg.matched_net, want->first);
            }
            // The validity subnet is the longest of: the match, and one
            // bit past the divergence from every route not covering a.
            uint32_t len = want != nullptr ? want->first.prefix_len() : 0;
            for (const auto& kv : ref) {
                if (kv.first.contains(a)) continue;
                uint32_t d = std::min(
                    A::common_prefix_len(a, kv.first.masked_addr()),
                    kv.first.prefix_len());
                len = std::max(len, d + 1);
            }
            ASSERT_EQ(reg.valid_subnet, NetA(a, len)) << a.str();
        } else if (op == 8) {  // subtree queries
            NetA w = NetA(G::near(pick().masked_addr(), rng), G::len(rng) / 2);
            std::vector<std::pair<NetA, int>> got, want;
            t.for_each_within(w, [&](const NetA& n, int v) {
                got.emplace_back(n, v);
            });
            for (const auto& kv : ref)
                if (w.contains(kv.first)) want.push_back(kv);
            ASSERT_EQ(got, want) << w.str();
            ASSERT_EQ(t.has_route_within(w), !want.empty()) << w.str();
        } else if (op == 9) {  // nearest less-specific cover
            NetA n = pick();
            NetA m;
            const int* got = t.find_less_specific(n, &m);
            const std::pair<const NetA, int>* want = nullptr;
            for (const auto& kv : ref)
                if (kv.first.prefix_len() < n.prefix_len() &&
                    kv.first.contains(n) &&
                    (want == nullptr ||
                     kv.first.prefix_len() > want->first.prefix_len()))
                    want = &kv;
            if (want == nullptr) {
                ASSERT_EQ(got, nullptr) << n.str();
            } else {
                ASSERT_NE(got, nullptr) << n.str();
                ASSERT_EQ(m, want->first);
                ASSERT_EQ(*got, want->second);
            }
        } else if (op == 10) {  // park a new iterator or advance one
            if (parked.size() < 3 && rng() % 2 == 0) {
                parked.push_back(t.begin());
            } else if (!parked.empty()) {
                auto& it = parked[rng() % parked.size()];
                if (!it.at_end()) ++it;
            }
        } else if (!parked.empty()) {  // an iterator leaves
            parked.erase(parked.begin() +
                         static_cast<long>(rng() % parked.size()));
        }

        for (const auto& it : parked) {
            if (it.at_end()) continue;
            auto r = ref.find(it.key());
            ASSERT_EQ(it.valid(), r != ref.end()) << it.key().str();
            if (it.valid()) {
                ASSERT_EQ(it.value(), r->second);
            }
        }
        ASSERT_EQ(t.size(), ref.size());
        // Pruning is deferred but bounded: every node beyond the forks
        // the routes need is pinned by the FIFO or a parked iterator.
        ASSERT_LE(t.pending_prunes(), kPruneFifoSlots);
        ASSERT_LE(t.node_count(),
                  2 * (t.size() + t.pending_prunes() + parked.size()) + 1)
            << "step " << step;
    }
    parked.clear();
    std::vector<std::pair<NetA, int>> all;
    t.for_each([&](const NetA& n, int v) { all.emplace_back(n, v); });
    EXPECT_EQ(all, (std::vector<std::pair<NetA, int>>(ref.begin(), ref.end())));
}

}  // namespace

TEST(Trie, DifferentialAgainstMapIPv4) {
    for (uint32_t seed = 1; seed <= 4; ++seed) run_differential<IPv4>(seed, 4000);
}

TEST(Trie, DifferentialAgainstMapIPv6) {
    for (uint32_t seed = 1; seed <= 4; ++seed) run_differential<IPv6>(seed, 4000);
}
