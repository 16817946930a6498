// Path-compressed binary trie (Patricia tree) keyed by IpNet<A>, with the
// paper's "safe route iterators" (§5.3) and an exact-match hash index.
//
// Background tasks — a BGP deletion stage slicing through 146k routes, a
// policy re-filter pass — park an iterator in the table and resume later.
// Meanwhile event handlers may delete the very node the iterator points
// at. To keep parked iterators valid, every node carries a reference count
// of iterators currently resting on it. Erasing a route clears the node's
// value immediately (lookups no longer see it) but defers the structural
// unlink until the last iterator leaves; the departing iterator performs
// the deferred pruning. Users of the trie never see any of this: the rule
// they rely on is simply "an iterator never dangles across a pause".
//
// Exact-prefix operations skip the tree. A flat open-addressing table maps
// each key to its node, so find, erase and an insert over an existing key
// touch a hash slot and one node instead of ~20 cold nodes on the path
// from the root. The Patricia structure serves the prefix-shaped queries:
// lookup (LPM), find_less_specific, for_each_within, has_route_within,
// register_lookup and the safe iterators.
//
// Erase also defers its prune when no iterator is parked: the emptied node
// waits in a FIFO of kPruneFifoSlots recently emptied nodes and is pruned
// when it falls out. A §5.1 replace — delete(old) then add(new) of the
// same prefix — therefore revives the node in place instead of unlinking
// a leaf and rebuilding it, in every table the replace passes through.
//
// Node layout invariants:
//  - the root always exists and has key 0/0;
//  - a child's key strictly extends its parent's key;
//  - a valueless non-root node with fewer than two children is either
//    waiting in the prune FIFO or holding a parked iterator; any other is
//    pruned (spliced out or removed) at once. So node_count() is at most
//    2 * (size() + pending_prunes() + parked iterators) + 1, and a subtree
//    without routes consists of such pinned nodes and the forks above them;
//  - the index holds exactly the valued nodes and the empty nodes pinned
//    by the prune FIFO or a parked iterator; an empty node leaves it when
//    the last of those lets go. So index size minus size() counts the
//    empty pinned nodes, and when it is zero every non-root subtree holds
//    a route.
//
// Allocation: nodes live on a per-trie arena — contiguous blocks carved
// into node slots, recycled through a free list — so a million-route
// table costs one malloc per kArenaBlockNodes nodes instead of one per
// node, and neighbouring nodes share cache lines. The global toggle
// (set_trie_arena_enabled) is captured at construction; bench_memory
// flips it to measure the before/after footprint. The index allocates on
// the first insert, so an empty trie costs no more than the arena block.
#ifndef XRP_NET_TRIE_HPP
#define XRP_NET_TRIE_HPP

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/ipnet.hpp"

namespace xrp::net {

// Process-wide default for whether new tries pool their nodes. Each trie
// snapshots the flag in its constructor, so flipping it never mixes
// allocators within one table.
inline bool& trie_arena_flag() {
    static bool enabled = true;
    return enabled;
}
inline void set_trie_arena_enabled(bool on) { trie_arena_flag() = on; }
inline bool trie_arena_enabled() { return trie_arena_flag(); }

inline constexpr size_t kArenaBlockNodes = 256;

// Recently emptied nodes kept linked for a same-prefix re-insert. A
// replace reaches each stage as an adjacent delete+add, so a handful of
// slots covers it; the bound keeps the extra nodes negligible.
inline constexpr size_t kPruneFifoSlots = 16;

template <class A, class T>
class RouteTrie {
    struct Node;

public:
    using Net = IpNet<A>;

    RouteTrie() : root_(arena_.create(Net{}, nullptr)) {}

    RouteTrie(const RouteTrie&) = delete;
    RouteTrie& operator=(const RouteTrie&) = delete;

    ~RouteTrie() {
        assert(live_iterators_ == 0);
        destroy_subtree(root_);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    // Bytes held by the node arena (0 when the arena is disabled and
    // nodes come from the general-purpose allocator one by one).
    size_t arena_bytes() const { return arena_.bytes(); }
    // Bytes held by the exact-match index.
    size_t index_bytes() const { return index_.bytes(); }

    // Inserts or overwrites. Returns true if the key was new.
    bool insert(const Net& net, T value) {
        if (Node* n = index_.find(net)) {
            // A live route, or an emptied node still linked: fill in place.
            bool was_new = !n->value.has_value();
            n->value = std::move(value);
            if (was_new) ++size_;
            return was_new;
        }
        Node* n = root_;
        while (true) {
            if (n->key == net) {
                // A valueless fork (or the root) sits exactly at `net`.
                fill(n, std::move(value));
                return true;
            }
            // Invariant: n->key contains net and is strictly shorter.
            bool b = net.masked_addr().bit(n->key.prefix_len());
            Node* c = n->child[b];
            if (c == nullptr) {
                Node* leaf = arena_.create(net, n);
                n->child[b] = leaf;
                fill(leaf, std::move(value));
                return true;
            }
            if (c->key.contains(net)) {
                n = c;
                continue;
            }
            if (net.contains(c->key)) {
                // Interpose a node for `net` between n and c.
                Node* mid = arena_.create(net, n);
                n->child[b] = mid;
                adopt(mid, c);
                fill(mid, std::move(value));
                return true;
            }
            // Keys diverge: interpose a valueless fork at the common prefix.
            uint32_t d = A::common_prefix_len(net.masked_addr(),
                                              c->key.masked_addr());
            assert(d < net.prefix_len() && d < c->key.prefix_len());
            Node* fork = arena_.create(Net(net.masked_addr(), d), n);
            n->child[b] = fork;
            adopt(fork, c);
            Node* leaf = arena_.create(net, fork);
            fork->child[net.masked_addr().bit(d)] = leaf;
            fill(leaf, std::move(value));
            return true;
        }
    }

    // Removes the exact prefix. Returns false if absent. The value
    // disappears now; the node lingers until parked iterators move on, or
    // otherwise until it leaves the prune FIFO.
    bool erase(const Net& net) {
        Node* n = index_.find(net);
        if (n == nullptr || !n->value.has_value()) return false;
        n->value.reset();
        --size_;
        if (n->iter_refs == 0 && !n->queued) queue_prune(n);
        return true;
    }

    // Exact-match lookup.
    const T* find(const Net& net) const {
        const Node* n = index_.find(net);
        return (n != nullptr && n->value.has_value()) ? &*n->value : nullptr;
    }
    T* find(const Net& net) {
        Node* n = index_.find(net);
        return (n != nullptr && n->value.has_value()) ? &*n->value : nullptr;
    }

    // Longest-prefix match for a host address.
    const T* lookup(A addr, Net* matched_net = nullptr) const {
        const Node* best = nullptr;
        for (const Node* n = root_; n != nullptr;) {
            if (!n->key.contains(addr)) break;
            if (n->value.has_value()) best = n;
            if (n->key.prefix_len() == A::kAddrBits) break;
            n = n->child[addr.bit(n->key.prefix_len())];
        }
        if (best == nullptr) return nullptr;
        if (matched_net != nullptr) *matched_net = best->key;
        return &*best->value;
    }

    // Nearest strictly-less-specific route covering `net`.
    const T* find_less_specific(const Net& net, Net* matched_net = nullptr) const {
        const Node* best = nullptr;
        for (const Node* n = root_; n != nullptr;) {
            if (!n->key.contains(net) || n->key.prefix_len() >= net.prefix_len())
                break;
            if (n->value.has_value()) best = n;
            n = n->child[net.masked_addr().bit(n->key.prefix_len())];
        }
        if (best == nullptr) return nullptr;
        if (matched_net != nullptr) *matched_net = best->key;
        return &*best->value;
    }

    // True if any route exists that is equal to or more specific than `net`.
    bool has_route_within(const Net& net) const {
        const Node* n = root_;
        while (n != nullptr) {
            if (net.contains(n->key)) return holds_route(n);
            if (!n->key.contains(net)) return false;
            if (n->key.prefix_len() == A::kAddrBits) return false;
            n = n->child[net.masked_addr().bit(n->key.prefix_len())];
        }
        return false;
    }

    // The RegisterStage query (§5.2.1, Figure 8): for a host address,
    // report the matching route (if any) and the *largest enclosing subnet*
    // of `addr` within which that answer holds — the largest prefix
    // containing addr that is inside the matched route (if any) and is not
    // overlayed by any more-specific route. Clients may cache the answer
    // for every address in the returned subnet.
    struct RegisterResult {
        const T* route = nullptr;  // null if no route covers addr
        Net matched_net{};         // valid when route != null
        Net valid_subnet{};        // the largest enclosing cacheable subnet
    };
    RegisterResult register_lookup(A addr) const {
        RegisterResult r;
        // Phase 1: find the deepest valued node containing addr.
        const Node* vnode = nullptr;
        for (const Node* n = root_; n != nullptr;) {
            if (!n->key.contains(addr)) break;
            if (n->value.has_value()) vnode = n;
            if (n->key.prefix_len() == A::kAddrBits) break;
            n = n->child[addr.bit(n->key.prefix_len())];
        }
        uint32_t best = 0;
        const Node* n = root_;
        if (vnode != nullptr) {
            r.route = &*vnode->value;
            r.matched_net = vnode->key;
            best = vnode->key.prefix_len();
            n = vnode;
        }
        // Phase 2: descend below the match accumulating constraints from
        // every more-specific route that shares a partial path with addr.
        while (n->key.prefix_len() < A::kAddrBits) {
            bool b = addr.bit(n->key.prefix_len());
            if (holds_route(n->child[!b]))
                best = std::max(best, n->key.prefix_len() + 1);
            const Node* c = n->child[b];
            if (c == nullptr) break;
            uint32_t d = std::min(
                A::common_prefix_len(addr, c->key.masked_addr()),
                c->key.prefix_len());
            if (d < c->key.prefix_len()) {
                if (holds_route(c)) best = std::max(best, d + 1);
                break;
            }
            n = c;
        }
        r.valid_subnet = Net(addr.masked(best), best);
        return r;
    }

    // ---- Safe iterator ----------------------------------------------
    class iterator {
    public:
        iterator() = default;
        iterator(const iterator& o) : trie_(o.trie_), node_(o.node_) {
            acquire();
        }
        iterator(iterator&& o) noexcept : trie_(o.trie_), node_(o.node_) {
            o.trie_ = nullptr;
            o.node_ = nullptr;
        }
        iterator& operator=(const iterator& o) {
            if (this != &o) {
                release();
                trie_ = o.trie_;
                node_ = o.node_;
                acquire();
            }
            return *this;
        }
        iterator& operator=(iterator&& o) noexcept {
            if (this != &o) {
                release();
                trie_ = o.trie_;
                node_ = o.node_;
                o.trie_ = nullptr;
                o.node_ = nullptr;
            }
            return *this;
        }
        ~iterator() { release(); }

        bool at_end() const { return node_ == nullptr; }

        const Net& key() const { return node_->key; }
        // The pointed-at route may have been erased while we were parked;
        // valid() distinguishes "route still live" from "node lingering
        // solely for our benefit".
        bool valid() const {
            return node_ != nullptr && node_->value.has_value();
        }
        T& value() { return *node_->value; }
        const T& value() const { return *node_->value; }

        // Advance to the next live route in prefix order. If the current
        // route was erased underneath us, this still lands on the correct
        // successor, per the §5.3 contract.
        iterator& operator++() {
            assert(node_ != nullptr);
            Node* n = node_;
            do {
                n = RouteTrie::preorder_next(n);
            } while (n != nullptr && !n->value.has_value());
            move_to(n);
            return *this;
        }

        bool operator==(const iterator& o) const { return node_ == o.node_; }

    private:
        friend class RouteTrie;
        iterator(RouteTrie* trie, Node* node) : trie_(trie), node_(node) {
            acquire();
        }
        void acquire() {
            if (node_ != nullptr) {
                ++node_->iter_refs;
                ++trie_->live_iterators_;
            }
        }
        void release() {
            if (node_ != nullptr) {
                Node* n = node_;
                node_ = nullptr;
                --trie_->live_iterators_;
                assert(n->iter_refs > 0);
                if (--n->iter_refs == 0 && !n->queued) trie_->settle(n);
            }
        }
        void move_to(Node* n) {
            RouteTrie* t = trie_;
            release();
            trie_ = t;
            node_ = n;
            acquire();
        }

        RouteTrie* trie_ = nullptr;
        Node* node_ = nullptr;
    };

    iterator begin() {
        Node* n = root_;
        if (!n->value.has_value()) {
            do {
                n = preorder_next(n);
            } while (n != nullptr && !n->value.has_value());
        }
        return iterator(this, n);
    }
    iterator end() { return iterator(this, nullptr); }

    // Visits every live route in prefix order. `fn(net, value)`.
    template <class Fn>
    void for_each(Fn&& fn) const {
        for_each_node(root_, fn);
    }

    // Visits every live route equal to or more specific than `within`.
    template <class Fn>
    void for_each_within(const Net& within, Fn&& fn) const {
        const Node* n = root_;
        while (n != nullptr && !within.contains(n->key)) {
            if (!n->key.contains(within)) return;  // disjoint
            if (n->key.prefix_len() == A::kAddrBits) return;
            n = n->child[within.masked_addr().bit(n->key.prefix_len())];
        }
        if (n != nullptr) for_each_node(n, fn);
    }

    size_t node_count() const { return count_nodes(root_); }

    // Emptied nodes currently waiting in the prune FIFO.
    size_t pending_prunes() const {
        size_t n = 0;
        for (const Node* p : fifo_) n += p != nullptr;
        return n;
    }

private:
    struct Node {
        explicit Node(Net k, Node* p = nullptr) : key(k), parent(p) {}
        ~Node() { assert(iter_refs == 0); }

        Net key;
        std::optional<T> value;
        Node* parent = nullptr;
        Node* child[2] = {nullptr, nullptr};
        uint32_t iter_refs = 0;
        bool queued = false;  // waiting in the prune FIFO
    };

    // Per-trie node pool: blocks carved into Node-sized slots threaded on
    // a free list. destroy() runs the destructor and recycles the slot;
    // block storage is released only when the trie itself dies, which is
    // exactly the lifetime a routing table wants (peak size is sticky).
    class Arena {
        union Slot {
            Slot* next;
            alignas(Node) std::byte storage[sizeof(Node)];
        };
        struct Block {
            Slot slots[kArenaBlockNodes];
        };

    public:
        Arena() : enabled_(trie_arena_enabled()) {}
        Arena(const Arena&) = delete;
        Arena& operator=(const Arena&) = delete;

        template <class... Args>
        Node* create(Args&&... args) {
            if (!enabled_) return new Node(std::forward<Args>(args)...);
            if (free_ == nullptr) grow();
            Slot* s = free_;
            free_ = s->next;
            return new (s->storage) Node(std::forward<Args>(args)...);
        }
        void destroy(Node* n) {
            if (!enabled_) {
                delete n;
                return;
            }
            n->~Node();
            Slot* s = reinterpret_cast<Slot*>(n);
            s->next = free_;
            free_ = s;
        }
        size_t bytes() const { return blocks_.size() * sizeof(Block); }

    private:
        void grow() {
            blocks_.push_back(std::make_unique<Block>());
            Block* b = blocks_.back().get();
            for (size_t i = kArenaBlockNodes; i-- > 0;) {
                b->slots[i].next = free_;
                free_ = &b->slots[i];
            }
        }

        bool enabled_;
        Slot* free_ = nullptr;
        std::vector<std::unique_ptr<Block>> blocks_;
    };

    // Key -> node hash table: linear probing over a power-of-two array,
    // at most three quarters full, with backward-shift deletion (no
    // tombstones). A slot is a node pointer whose low bits — always zero,
    // as nodes are pointer-aligned — carry three more bits of the key's
    // hash, so a probe reads a node whose key differs only about once in
    // eight slots instead of at every occupied slot.
    class Index {
        static constexpr uintptr_t kTagMask = alignof(Node*) - 1;
        static_assert(kTagMask == 7 && alignof(Node) >= alignof(Node*));

    public:
        Index() = default;
        Index(const Index&) = delete;
        Index& operator=(const Index&) = delete;

        Node* find(const Net& key) const {
            if (count_ == 0) return nullptr;
            const uint64_t h = hash(key);
            for (size_t i = home(h);; i = (i + 1) & mask_) {
                const uintptr_t s = slots_[i];
                if (s == 0) return nullptr;
                if ((s & kTagMask) == tag(h) && node(s)->key == key)
                    return node(s);
            }
        }
        // `n->key` must not be present.
        void insert(Node* n) {
            if (4 * (count_ + 1) > 3 * capacity())
                rehash(std::max<size_t>(16, 2 * capacity()));
            place(n);
            ++count_;
        }
        void erase(const Node* n) {
            size_t i = home(hash(n->key));
            while (node(slots_[i]) != n) i = (i + 1) & mask_;
            // Shift later members of the probe run back over the hole
            // whenever their home slot lies cyclically outside (i, j].
            for (size_t j = (i + 1) & mask_; slots_[j] != 0;
                 j = (j + 1) & mask_) {
                const size_t h = home(hash(node(slots_[j])->key));
                if (((j - h) & mask_) >= ((j - i) & mask_)) {
                    slots_[i] = slots_[j];
                    i = j;
                }
            }
            slots_[i] = 0;
            --count_;
        }
        size_t size() const { return count_; }
        size_t bytes() const { return capacity() * sizeof(uintptr_t); }

    private:
        size_t capacity() const { return slots_ ? mask_ + 1 : 0; }
        // Fibonacci hashing: the top bits of the multiplied hash pick the
        // slot and the three bits below them the tag, so keys whose
        // std::hash differs only in low bits still spread.
        static uint64_t hash(const Net& key) {
            return static_cast<uint64_t>(std::hash<Net>{}(key)) *
                   0x9E3779B97F4A7C15ull;
        }
        size_t home(uint64_t h) const {
            return static_cast<size_t>(h >> shift_);
        }
        uintptr_t tag(uint64_t h) const {
            return static_cast<uintptr_t>(h >> (shift_ - 3)) & kTagMask;
        }
        static Node* node(uintptr_t slot) {
            return reinterpret_cast<Node*>(slot & ~kTagMask);
        }
        void place(Node* n) {
            const uint64_t h = hash(n->key);
            size_t i = home(h);
            while (slots_[i] != 0) i = (i + 1) & mask_;
            slots_[i] = reinterpret_cast<uintptr_t>(n) | tag(h);
        }
        void rehash(size_t cap) {
            const size_t old_cap = capacity();
            std::unique_ptr<uintptr_t[]> old = std::move(slots_);
            slots_ = std::make_unique<uintptr_t[]>(cap);  // zeroed
            mask_ = cap - 1;
            shift_ = 64;
            for (size_t c = cap; c > 1; c >>= 1) --shift_;
            for (size_t i = 0; i < old_cap; ++i)
                if (old[i] != 0) place(node(old[i]));
        }

        std::unique_ptr<uintptr_t[]> slots_;
        size_t mask_ = 0;
        unsigned shift_ = 64;
        size_t count_ = 0;
    };

    static void adopt(Node* new_parent, Node* child) {
        child->parent = new_parent;
        new_parent->child[child->key.masked_addr().bit(
            new_parent->key.prefix_len())] = child;
    }

    // Gives an unindexed node its first value since it was last emptied.
    void fill(Node* n, T value) {
        assert(!n->value.has_value() && index_.find(n->key) == nullptr);
        n->value = std::move(value);
        ++size_;
        index_.insert(n);
    }

    // Appends a just-emptied node to the prune FIFO; the node it displaces
    // (the oldest) is settled. `n` is marked first so that settling the
    // oldest never prunes it.
    void queue_prune(Node* n) {
        n->queued = true;
        Node* oldest = fifo_[fifo_head_];
        fifo_[fifo_head_] = n;
        fifo_head_ = (fifo_head_ + 1) % kPruneFifoSlots;
        if (oldest != nullptr) {
            oldest->queued = false;
            if (oldest->iter_refs == 0) settle(oldest);  // else on release
        }
    }

    // A node that has stopped waiting in the prune FIFO and has no parked
    // iterator: if it holds no route, drop it from the index and prune
    // what is no longer needed. Only a node that held a route gets pinned,
    // so an empty node reaching here is still indexed.
    void settle(Node* n) {
        if (n->value.has_value()) return;
        index_.erase(n);
        prune_upward(n);
    }

    // True if `n` or any node below it holds a route. Only an empty node
    // pinned by the prune FIFO or a parked iterator can end a route-free
    // branch, and the index holds exactly the routes and those nodes: with
    // none of them, every non-root node has a route or two children.
    bool holds_route(const Node* n) const {
        if (n == nullptr) return false;
        if (n->value.has_value()) return true;
        if (index_.size() == size_ && n != root_) return true;
        return holds_route(n->child[0]) || holds_route(n->child[1]);
    }

    static Node* preorder_next(Node* n) {
        if (n->child[0] != nullptr) return n->child[0];
        if (n->child[1] != nullptr) return n->child[1];
        while (n->parent != nullptr) {
            Node* p = n->parent;
            if (p->child[0] == n && p->child[1] != nullptr) return p->child[1];
            n = p;
        }
        return nullptr;
    }

    // Removes structurally-unneeded nodes starting at `n` and walking up.
    // A node is removable when it has no value, no parked iterators, is
    // not waiting in the prune FIFO, and has fewer than two children.
    // Never removes the root.
    void prune_upward(Node* n) {
        while (n != nullptr && n->parent != nullptr && !n->value.has_value() &&
               n->iter_refs == 0 && !n->queued &&
               !(n->child[0] != nullptr && n->child[1] != nullptr)) {
            assert(index_.find(n->key) != n);
            Node* parent = n->parent;
            Node*& slot = parent->child[parent->child[0] == n ? 0 : 1];
            assert(slot == n);
            Node* only_child =
                n->child[0] != nullptr ? n->child[0] : n->child[1];
            if (only_child != nullptr) {
                only_child->parent = parent;
                slot = only_child;  // splice n out
            } else {
                slot = nullptr;  // remove leaf
            }
            arena_.destroy(n);
            n = parent;
        }
    }

    void destroy_subtree(Node* n) {
        if (n == nullptr) return;
        destroy_subtree(n->child[0]);
        destroy_subtree(n->child[1]);
        arena_.destroy(n);
    }

    template <class Fn>
    static void for_each_node(const Node* n, Fn& fn) {
        if (n == nullptr) return;
        if (n->value.has_value()) fn(n->key, *n->value);
        for_each_node(n->child[0], fn);
        for_each_node(n->child[1], fn);
    }

    static size_t count_nodes(const Node* n) {
        if (n == nullptr) return 0;
        return 1 + count_nodes(n->child[0]) + count_nodes(n->child[1]);
    }

    Arena arena_;
    Node* root_;
    Index index_;
    Node* fifo_[kPruneFifoSlots] = {};
    size_t fifo_head_ = 0;  // next slot to fill; holds the oldest entry
    size_t size_ = 0;
    size_t live_iterators_ = 0;
};

}  // namespace xrp::net

#endif
