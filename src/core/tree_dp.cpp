#include "core/tree_dp.hpp"

#include <algorithm>
#include <bit>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "util/arena.hpp"
#include "util/contracts.hpp"
#include "util/env.hpp"

namespace hgp {

namespace {

/// Process-wide A/B switch for dominance pruning (HGP_DP_PRUNE, default
/// ON).  Read once; the differential harness and CI flip it per process.
bool dp_prune_env_enabled() {
  static const bool enabled = env_flag("HGP_DP_PRUNE", true);
  return enabled;
}

/// Publishes one solve's locally-counted DP work into the shared metrics
/// registry (counters `dp.*` and the demand-rounding bucket histogram).
/// One call per solve — the hot merge loop itself never touches atomics.
void publish_dp_metrics(const TreeDpStats& stats, const Tree& bt,
                        const ScaledDemands& sd) {
  HGP_COUNTER_ADD("dp.solves", 1);
  HGP_COUNTER_ADD("dp.signatures", stats.signature_count);
  HGP_COUNTER_ADD("dp.feasible_states", stats.feasible_states);
  HGP_COUNTER_ADD("dp.merge_operations", stats.merge_operations);
  HGP_COUNTER_ADD("dp.merges_rejected", stats.merges_rejected);
  HGP_COUNTER_ADD("dp.states_pruned", stats.states_pruned);
  HGP_COUNTER_ADD("dp.subtree_tasks", stats.subtree_tasks);
  HGP_COUNTER_ADD("dp.nodes_built", stats.nodes_built);
  HGP_COUNTER_ADD("dp.nodes_reused", stats.nodes_reused);
#if HGP_OBS_ENABLED
  static obs::Histogram& units_hist =
      obs::MetricsRegistry::global().histogram(
          "dp.leaf_demand_units", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  for (Vertex v = 0; v < bt.node_count(); ++v) {
    if (bt.is_leaf(v)) {
      units_hist.observe(
          static_cast<double>(sd.units[static_cast<std::size_t>(v)]));
    }
  }
#else
  (void)bt;
  (void)sd;
#endif
}

}  // namespace

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoSig = kDpNoSig;

/// Back-pointers are stored in reuse entries verbatim, so the internal
/// alias is the public type.
using Back = DpBack;

/// A finished node's DP table, compacted: its feasible signature ids
/// (sorted), their costs and their back-pointers, parallel arrays.  `cost`
/// is read only by the parent's merge (or the root selection) and dropped
/// once the parent is processed; `back` stays for reconstruction.
struct NodeTable {
  std::vector<std::uint32_t> feasible;
  std::vector<double> cost;
  std::vector<Back> back;

  const Back& lookup(std::uint32_t sig) const {
    const auto it = std::lower_bound(feasible.begin(), feasible.end(), sig);
    HGP_CHECK_MSG(it != feasible.end() && *it == sig,
                  "backtracking hit an infeasible signature");
    return back[static_cast<std::size_t>(it - feasible.begin())];
  }

  void release_cost() { std::vector<double>().swap(cost); }
};

/// Scratch for the node being built — the only dense structure a sweep
/// needs, since finished nodes keep compacted tables.  `slot_[sig]` is the
/// position of sig's entry in `entries_` (appended in first-write order),
/// or kNoSlot.  The |Sig|-sized index comes from an arena, so it is
/// charged to the MemoryBudget; it is all-kNoSlot between nodes, and
/// finish() resets only the slots the node used.  Single-threaded: the
/// parallel subtree phase gives every task its own scratch.
class NodeScratch {
 public:
  explicit NodeScratch(std::size_t size)
      : arena_(std::max<std::size_t>(1, size * sizeof(std::uint32_t))),
        slot_(arena_.allocate_filled<std::uint32_t>(size, kNoSlot)) {}

  /// Keeps the cheaper of the stored and the offered (cost, back) for
  /// `sig`; ties keep the first.
  void relax(std::size_t sig, double cost, const Back& back) {
    std::uint32_t& slot = slot_[sig];
    if (slot == kNoSlot) {
      if (!(cost < kInf)) return;
      slot = narrow<std::uint32_t>(entries_.size());
      entries_.push_back({cost, narrow<std::uint32_t>(sig), back});
    } else if (cost < entries_[slot].cost) {
      entries_[slot].cost = cost;
      entries_[slot].back = back;
    }
  }

  /// Pareto dominance pruning.  An entry (D, p, cost) is dominated by
  /// (D', p, cost') with D' ≤ D componentwise and cost' ≤ cost: every
  /// parent combination accepting the former accepts the latter with the
  /// same cut/presence choices and charges (those read only j and p),
  /// passes the same capacity checks (smaller demands), and produces a
  /// dominating parent entry — so dropping dominated states preserves the
  /// optimum.  This is what keeps deep hierarchies tractable in practice.
  /// Dropped entries get cost +inf (finish() discards them).  Returns the
  /// number of entries dropped.
  std::size_t prune_dominated(const SignatureSpace& space) {
    const int height = space.height();
    std::vector<std::uint32_t> order(entries_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = narrow<std::uint32_t>(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const Entry& ea = entries_[a];
                const Entry& eb = entries_[b];
                return ea.cost != eb.cost ? ea.cost < eb.cost
                                          : ea.sig < eb.sig;
              });
    // kept[p] = surviving entries of presence class p, in cost order; a
    // candidate is dominated iff some earlier (cheaper) kept entry has
    // componentwise-smaller demand.
    std::vector<std::vector<std::uint32_t>> kept(
        static_cast<std::size_t>(height) + 1);
    std::size_t pruned = 0;
    for (const std::uint32_t i : order) {
      Entry& e = entries_[i];
      const auto p = static_cast<std::size_t>(space.present(e.sig));
      bool dominated = false;
      for (const std::uint32_t k : kept[p]) {
        bool leq = true;
        for (int j = 1; j <= height && leq; ++j) {
          leq = space.level(k, j) <= space.level(e.sig, j);
        }
        if (leq) {
          dominated = true;
          break;
        }
      }
      if (dominated) {
        e.cost = kInf;
        ++pruned;
      } else {
        kept[p].push_back(e.sig);
      }
    }
    return pruned;
  }

  /// Moves the node's surviving entries into `table`, sorted by id, and
  /// resets the slots the node used.
  void finish(NodeTable& table) {
    for (const Entry& e : entries_) slot_[e.sig] = kNoSlot;
    std::erase_if(entries_, [](const Entry& e) { return e.cost == kInf; });
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.sig < b.sig; });
    const std::size_t n = entries_.size();
    table.feasible.resize(n);
    table.cost.resize(n);
    table.back.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      table.feasible[i] = entries_[i].sig;
      table.cost[i] = entries_[i].cost;
      table.back[i] = entries_[i].back;
    }
    entries_.clear();
  }

  std::size_t bytes_reserved() const { return arena_.bytes_reserved(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  struct Entry {
    double cost;
    std::uint32_t sig;
    Back back;
  };

  Arena arena_;
  std::span<std::uint32_t> slot_;
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Clean-subtree reuse (incremental re-solve).
//
// A node's DP table is a pure function of its binarized subtree's content
// (rounded leaf demands, edge weights, uncuttable flags, shape) plus the
// signature-space parameters.  We hash that content bottom-up (SplitMix64
// finalizer mixing); a node whose hash — and every descendant's — is found
// in a compatible DpReuseStore is *rehydrated*: its compacted table is
// copied in, exactly as a build would have left it.  Everything else builds
// normally, so the sweep stays a single children-before-parents pass and
// the parallel subtree phase needs no changes beyond dispatching through
// process() instead of build_node().
//
// Bit-identity: stored entries were compacted+pruned exactly as a fresh
// build would compact+prune them (the store pins the effective prune flag
// and units_per_capacity).  When the demand *total* differs between solves
// the signature spaces differ only in their per-level bounds; stored ids
// are translated by decoding against the capturing space and re-interning
// (translation is monotone in the lex enumeration, so sorted feasible
// arrays stay sorted, and clean-subtree demands — bounded by the unchanged
// subtree demand sum ≤ both totals — always re-intern successfully; an
// npos can only mean a hash collision and demotes the node to a rebuild).

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t x) {
  return mix64(h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

/// Content hash of every binarized subtree, children-before-parents.
std::vector<std::uint64_t> subtree_hashes(const Tree& bt,
                                          const ScaledDemands& sd) {
  const auto n = static_cast<std::size_t>(bt.node_count());
  std::vector<std::uint64_t> hash(n, 0);
  const std::vector<Vertex>& pre = bt.preorder();
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    const Vertex v = *it;
    const auto vi = static_cast<std::size_t>(v);
    const auto kids = bt.children(v);
    if (kids.empty()) {
      hash[vi] = hash_combine(
          0x6c656166ull,  // leaf tag
          static_cast<std::uint64_t>(sd.units[vi]));
      continue;
    }
    std::uint64_t h = hash_combine(0x696e6e6572ull,  // internal tag
                                   static_cast<std::uint64_t>(kids.size()));
    for (const Vertex c : kids) {
      const auto ci = static_cast<std::size_t>(c);
      const bool inf = bt.parent_edge_infinite(c);
      h = hash_combine(h, hash[ci]);
      h = hash_combine(h, inf ? 1u : 0u);
      h = hash_combine(
          h, inf ? 0 : std::bit_cast<std::uint64_t>(bt.parent_weight(c)));
    }
    hash[vi] = h;
  }
  return hash;
}

/// Per-node rehydrate/build decisions for one solve.  `entry[v]` non-null
/// means v rehydrates from that table (already in the *current* space).
struct ReusePlan {
  std::vector<std::uint64_t> hash;
  std::vector<const DpSubtreeEntry*> entry;
  /// Owns tables translated from the store's space into the current one
  /// (empty feasible = cached translation failure).  Node-based map:
  /// pointers into it stay valid across inserts.
  std::unordered_map<std::uint64_t, DpSubtreeEntry> translated;
};

ReusePlan make_reuse_plan(const Tree& bt, const ScaledDemands& sd,
                          const SignatureSpace& space, int height,
                          bool prune, const DpReuseStore* store) {
  const auto n = static_cast<std::size_t>(bt.node_count());
  ReusePlan plan;
  plan.hash = subtree_hashes(bt, sd);
  plan.entry.assign(n, nullptr);
  const bool usable = store != nullptr && !store->entries.empty() &&
                      store->height == height && store->prune == prune &&
                      store->units_per_capacity == sd.units_per_capacity &&
                      store->capacity == sd.capacity;
  if (!usable) return plan;

  const bool identity = store->total == sd.total;
  std::optional<SignatureSpace> old_space;
  std::unordered_map<std::size_t, std::size_t> id_map;
  if (!identity) {
    ScaledDemands old_sd;
    old_sd.units_per_capacity = store->units_per_capacity;
    old_sd.total = store->total;
    old_sd.capacity = store->capacity;
    old_space.emplace(old_sd, height);
  }
  auto translate_id = [&](std::uint32_t old_id) -> std::size_t {
    if (old_id >= old_space->size()) return SignatureSpace::npos;
    const auto it = id_map.find(old_id);
    if (it != id_map.end()) return it->second;
    Signature d(static_cast<std::size_t>(height));
    for (int j = 1; j <= height; ++j) {
      d[static_cast<std::size_t>(j - 1)] = old_space->level(old_id, j);
    }
    const std::size_t nid = space.id_of(d, old_space->present(old_id));
    id_map.emplace(old_id, nid);
    return nid;
  };
  auto resolve = [&](std::uint64_t h) -> const DpSubtreeEntry* {
    const auto sit = store->entries.find(h);
    if (sit == store->entries.end()) return nullptr;
    if (identity) return &sit->second;
    const auto [tit, fresh] = plan.translated.try_emplace(h);
    if (!fresh) {
      return tit->second.feasible.empty() ? nullptr : &tit->second;
    }
    const DpSubtreeEntry& e = sit->second;
    DpSubtreeEntry& out = tit->second;
    out.feasible.reserve(e.feasible.size());
    out.cost = e.cost;
    out.back.reserve(e.back.size());
    for (std::size_t i = 0; i < e.feasible.size(); ++i) {
      const std::size_t f = translate_id(e.feasible[i]);
      Back b = e.back[i];
      bool ok = f != SignatureSpace::npos;
      if (ok && b.sig1 != kNoSig) {
        const std::size_t t = translate_id(b.sig1);
        ok = t != SignatureSpace::npos;
        if (ok) b.sig1 = narrow<std::uint32_t>(t);
      }
      if (ok && b.sig2 != kNoSig) {
        const std::size_t t = translate_id(b.sig2);
        ok = t != SignatureSpace::npos;
        if (ok) b.sig2 = narrow<std::uint32_t>(t);
      }
      if (!ok) {
        out = DpSubtreeEntry{};
        return nullptr;
      }
      out.feasible.push_back(narrow<std::uint32_t>(f));
      out.back.push_back(b);
    }
    return &out;
  };

  const std::vector<Vertex>& pre = bt.preorder();
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    const Vertex v = *it;
    const auto vi = static_cast<std::size_t>(v);
    bool kids_hit = true;
    for (const Vertex c : bt.children(v)) {
      kids_hit = kids_hit && plan.entry[static_cast<std::size_t>(c)] != nullptr;
    }
    if (kids_hit) plan.entry[vi] = resolve(plan.hash[vi]);
  }
  return plan;
}

// Cost accounting.  The solution's mirror regions partition (a subset of)
// the tree nodes into disjoint connected regions per level, nested across
// levels; the objective Σ_S w(δ(N(S))) · Δ_k/2 charges every edge Δ_k/2
// once per level-k region it borders.  For the edge above child c (cut
// level j_c, presence p_c) under a parent with presence depth p_v:
//   * closing charge: the child-side regions at levels (j_c, p_c] close
//     here, each putting the edge on its boundary → PS[p_c] − PS[j_c];
//   * surviving charge: the parent-side regions at levels (kept_c, p_v]
//     (kept_c = min(j_c, p_c)) do not continue into c → PS[p_v] − PS[kept_c];
// with PS[j] = Σ_{k≤j} Δ_k/2.  Uncuttable (dummy) edges must never border a
// region — a dummy *is* its original node — which forces j_c = p_c = p_v.
//
// With presence depths the DP's region space is exactly "disjoint connected
// node sets per level, covering all leaves, nested, demand ≤ CPs" — the
// canonical mirror regions of any RHGPT solution (components of
// T ∖ CUT_T(S), Definition 5) are of this form, so the DP optimum equals
// the Definition-4 objective (Σ of independent minimum separators) over the
// rounded demands, as Theorem 4 requires.
//
// Node-build order only needs children before parents; beyond that, node
// tables are independent — the parallel subtree phase exploits exactly
// this (disjoint subtrees touch disjoint table ranges), and every
// scheduling produces bit-identical tables.
struct DpEngine {
  const Tree& bt;
  const SignatureSpace& space;
  const ScaledDemands& sd;
  const std::vector<double>& ps;
  bool prune;
  std::vector<NodeTable>& tables;
  /// Rehydrate/build decisions; nullptr = build everything.
  const ReusePlan* plan = nullptr;
  /// Per-node capture slots for TreeDpOptions::reuse_out (indexed writes,
  /// so the parallel subtree phase needs no synchronization); nullptr =
  /// no capture.
  std::vector<DpSubtreeEntry>* capture = nullptr;

  /// Node dispatch: rehydrate a clean subtree's table or build it by
  /// merging.  Bit-identical either way.  The children's costs have been
  /// read by then, so they are dropped; their back-pointers stay.
  void process(Vertex v, NodeScratch& scratch, TreeDpStats& stats,
               PeriodicCheck& guard) const {
    const auto vi = static_cast<std::size_t>(v);
    const DpSubtreeEntry* e = plan == nullptr ? nullptr : plan->entry[vi];
    if (e != nullptr) {
      rehydrate(v, *e, stats, guard);
    } else {
      build_node(v, scratch, stats, guard);
      ++stats.nodes_built;
      if (capture != nullptr) {
        const NodeTable& table = tables[vi];
        (*capture)[vi] = DpSubtreeEntry{table.feasible, table.cost, table.back};
      }
    }
    for (const Vertex c : bt.children(v)) {
      tables[static_cast<std::size_t>(c)].release_cost();
    }
  }

  void rehydrate(Vertex v, const DpSubtreeEntry& e, TreeDpStats& stats,
                 PeriodicCheck& guard) const {
    guard.tick();
    const auto vi = static_cast<std::size_t>(v);
    NodeTable& table = tables[vi];
    table.feasible = e.feasible;
    table.cost = e.cost;
    table.back = e.back;
    stats.feasible_states += e.feasible.size();
    ++stats.nodes_reused;
    if (capture != nullptr) (*capture)[vi] = e;
  }

  /// charge[j·(h+1) + p] = w · (PS[p] − PS[j]): the closing charge of a
  /// child cut at j with presence p, and the surviving charge of a parent
  /// with presence p over a child kept to j — the same product either way.
  std::vector<double> charge_table(Weight w) const {
    const int height = space.height();
    const auto row = static_cast<std::size_t>(height) + 1;
    std::vector<double> charge(row * row);
    for (std::size_t j = 0; j < row; ++j) {
      for (std::size_t p = 0; p < row; ++p) {
        charge[j * row + p] = w * (ps[p] - ps[j]);
      }
    }
    return charge;
  }

  /// One-child node: every (s1, j1) lifts to one demand tuple, filled
  /// across its presence range.  A cut level never exceeds the child's
  /// presence, so the kept prefix is j1 itself.
  void lift_child(NodeScratch& scratch, Vertex c, TreeDpStats& stats,
                  PeriodicCheck& guard) const {
    const int height = space.height();
    const auto row = static_cast<std::size_t>(height) + 1;
    const NodeTable& ct = tables[static_cast<std::size_t>(c)];
    const bool uncut = bt.parent_edge_infinite(c);
    const std::vector<double> charge =
        charge_table(uncut ? 0 : bt.parent_weight(c));
    for (std::size_t i1 = 0; i1 < ct.feasible.size(); ++i1) {
      const std::uint32_t s1 = ct.feasible[i1];
      const std::size_t tu1 = space.tuple_of(s1);
      const int p1 = space.present(s1);
      const double base1 = ct.cost[i1];
      std::size_t merges = 0;
      for (int j1 = uncut ? p1 : 0; j1 <= p1; ++j1) {
        const auto j1i = static_cast<std::size_t>(j1);
        const double partial =
            base1 + charge[j1i * row + static_cast<std::size_t>(p1)];
        const int pv_lo = uncut ? p1 : j1;
        const int pv_hi = uncut ? p1 : height;
        const std::size_t tuple = space.lifted_tuple(tu1, j1);
        HGP_POSTCONDITION_MSG(
            space.lift(s1, j1, pv_lo) == space.compose(tuple, pv_lo),
            "lift kernel disagrees with SignatureSpace::lift");
        const Back back{s1, kNoSig, narrow<std::int8_t>(j1), -1};
        for (int pv = pv_lo; pv <= pv_hi; ++pv) {
          scratch.relax(
              space.compose(tuple, pv),
              partial + charge[j1i * row + static_cast<std::size_t>(pv)],
              back);
        }
        merges += static_cast<std::size_t>(pv_hi - pv_lo + 1);
      }
      stats.merge_operations += merges;
      guard.tick(merges);
    }
  }

  /// Two-child node: the (j1,j2)-consistent merge of Definition 9 for
  /// every (s1, s2, j1, j2), one merged_tuple() each, filled across the
  /// parent-presence range pv.  Relaxations run in (s1, s2, j1, j2, pv)
  /// order and the cost is summed as ((base12 + closing1) + closing2) +
  /// surviving, so ties and rounding resolve exactly as one merge() per pv
  /// would.  merge() rejects pv below max(j1, j2) (cut levels never exceed
  /// the child's presence, so the kept prefixes are j1 and j2) and every
  /// pv on a capacity overflow; either way the whole range is rejected,
  /// and counted so.  The deadline guard ticks once per s2 row with that
  /// row's merges, keeping the every-4096-merges cadence.
  void merge_children(NodeScratch& scratch, Vertex c1, Vertex c2,
                      TreeDpStats& stats, PeriodicCheck& guard) const {
    const int height = space.height();
    const auto row = static_cast<std::size_t>(height) + 1;
    const NodeTable& t1 = tables[static_cast<std::size_t>(c1)];
    const NodeTable& t2 = tables[static_cast<std::size_t>(c2)];
    const bool inf1 = bt.parent_edge_infinite(c1);
    const bool inf2 = bt.parent_edge_infinite(c2);
    const std::vector<double> charge1 =
        charge_table(inf1 ? 0 : bt.parent_weight(c1));
    const std::vector<double> charge2 =
        charge_table(inf2 ? 0 : bt.parent_weight(c2));
    // Child 2's row decoded once, so the s1 × s2 loop divides nothing.
    struct Entry {
      std::uint32_t sig;
      int present;
      std::size_t tuple;
      double cost;
    };
    std::vector<Entry> row2;
    row2.reserve(t2.feasible.size());
    for (std::size_t i2 = 0; i2 < t2.feasible.size(); ++i2) {
      const std::uint32_t s2 = t2.feasible[i2];
      row2.push_back(
          {s2, space.present(s2), space.tuple_of(s2), t2.cost[i2]});
    }
    for (std::size_t i1 = 0; i1 < t1.feasible.size(); ++i1) {
      const std::uint32_t s1 = t1.feasible[i1];
      const std::size_t tu1 = space.tuple_of(s1);
      const int p1 = space.present(s1);
      const double base1 = t1.cost[i1];
      for (const Entry& e2 : row2) {
        const int p2 = e2.present;
        const double base12 = base1 + e2.cost;
        std::size_t merges = 0;
        std::size_t rejected = 0;
        for (int j1 = inf1 ? p1 : 0; j1 <= p1; ++j1) {
          const auto j1i = static_cast<std::size_t>(j1);
          const double closed1 =
              base12 + charge1[j1i * row + static_cast<std::size_t>(p1)];
          const std::int8_t j1b = narrow<std::int8_t>(j1);
          for (int j2 = inf2 ? p2 : 0; j2 <= p2; ++j2) {
            const auto j2i = static_cast<std::size_t>(j2);
            // Parent presence: at least the kept prefixes, optionally
            // extended by phantom regions entering from above; dummy
            // edges pin it to the child's presence.
            int pv_lo = std::max(j1, j2);
            int pv_hi = height;
            if (inf1) pv_lo = pv_hi = p1;
            if (inf2) {
              pv_lo = std::max(pv_lo, p2);
              pv_hi = std::min(pv_hi, p2);
            }
            if (pv_lo > pv_hi) continue;
            const auto range = static_cast<std::size_t>(pv_hi - pv_lo + 1);
            merges += range;
            // pv below a kept prefix happens only when a dummy edge pins
            // pv to p1 < j2, a one-element range.
            const std::size_t tuple =
                std::max(j1, j2) > pv_lo
                    ? SignatureSpace::npos
                    : space.merged_tuple(tu1, j1, e2.tuple, j2);
            if (tuple == SignatureSpace::npos) {
              rejected += range;
              continue;
            }
            HGP_POSTCONDITION_MSG(
                space.merge(s1, j1, e2.sig, j2, pv_lo) ==
                    space.compose(tuple, pv_lo),
                "merge kernel disagrees with SignatureSpace::merge");
            const double closed12 =
                closed1 + charge2[j2i * row + static_cast<std::size_t>(p2)];
            const Back back{s1, e2.sig, j1b, narrow<std::int8_t>(j2)};
            for (int pv = pv_lo; pv <= pv_hi; ++pv) {
              const auto pvi = static_cast<std::size_t>(pv);
              scratch.relax(space.compose(tuple, pv),
                            closed12 + (charge1[j1i * row + pvi] +
                                        charge2[j2i * row + pvi]),
                            back);
            }
          }
        }
        stats.merge_operations += merges;
        stats.merges_rejected += rejected;
        guard.tick(merges);
      }
    }
  }

  void build_node(Vertex v, NodeScratch& scratch, TreeDpStats& stats,
                  PeriodicCheck& guard) const {
    guard.tick();
    const auto kids = bt.children(v);
    if (kids.empty()) {
      const std::size_t sig =
          space.uniform_id(sd.units[static_cast<std::size_t>(v)]);
      if (sig == SignatureSpace::npos) {
        throw SolveError(StatusCode::kInfeasible,
                         "leaf demand exceeds a level capacity");
      }
      scratch.relax(sig, 0.0, Back{});
    } else if (kids.size() == 1) {
      lift_child(scratch, kids[0], stats, guard);
    } else {
      HGP_CHECK_MSG(kids.size() == 2, "tree must be binarized");
      merge_children(scratch, kids[0], kids[1], stats, guard);
    }
    if (prune) {
      stats.states_pruned += scratch.prune_dominated(space);
    }
    NodeTable& table = tables[static_cast<std::size_t>(v)];
    scratch.finish(table);
    stats.feasible_states += table.feasible.size();
  }
};

/// Decomposition of the binarized tree into independent subtree slices for
/// the parallel bottom-up phase.  Subtrees are contiguous in the DFS
/// preorder, so a slice [lo, hi) walked in reverse visits children before
/// parents and touches no table outside the slice.  Nodes not covered by a
/// slice (the expanded ancestors) form the sequential "top" finished after
/// the tasks join.
struct SubtreePlan {
  std::vector<std::pair<std::size_t, std::size_t>> slices;
  std::vector<char> is_top;
};

SubtreePlan plan_subtrees(const Tree& bt, std::size_t target) {
  const auto n = static_cast<std::size_t>(bt.node_count());
  const std::vector<Vertex>& pre = bt.preorder();
  std::vector<std::size_t> pos(n, 0);
  std::vector<std::size_t> size(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(pre[i])] = i;
  }
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    const Vertex v = *it;
    if (v != bt.root()) {
      size[static_cast<std::size_t>(bt.parent(v))] +=
          size[static_cast<std::size_t>(v)];
    }
  }

  SubtreePlan plan;
  plan.is_top.assign(n, 0);
  // Repeatedly expand the largest frontier subtree into its children until
  // we have enough roughly-balanced tasks or the pieces get too small to
  // amortize scheduling.
  const std::size_t grain =
      std::max<std::size_t>(16, n / std::max<std::size_t>(1, 4 * target));
  auto by_size = [&](Vertex a, Vertex b) {
    return size[static_cast<std::size_t>(a)] <
           size[static_cast<std::size_t>(b)];
  };
  std::priority_queue<Vertex, std::vector<Vertex>, decltype(by_size)>
      frontier(by_size);
  frontier.push(bt.root());
  std::vector<Vertex> leaves_of_plan;
  while (!frontier.empty()) {
    const Vertex top = frontier.top();
    const bool expand =
        !bt.is_leaf(top) &&
        (frontier.size() + leaves_of_plan.size() < target ||
         size[static_cast<std::size_t>(top)] > grain * 4) &&
        size[static_cast<std::size_t>(top)] > grain;
    if (!expand) break;
    frontier.pop();
    plan.is_top[static_cast<std::size_t>(top)] = 1;
    for (const Vertex c : bt.children(top)) {
      if (bt.is_leaf(c) || size[static_cast<std::size_t>(c)] <= grain) {
        leaves_of_plan.push_back(c);
      } else {
        frontier.push(c);
      }
    }
  }
  while (!frontier.empty()) {
    leaves_of_plan.push_back(frontier.top());
    frontier.pop();
  }
  for (const Vertex v : leaves_of_plan) {
    const std::size_t lo = pos[static_cast<std::size_t>(v)];
    plan.slices.emplace_back(lo, lo + size[static_cast<std::size_t>(v)]);
  }
  return plan;
}

/// Number of subtree tasks worth creating on `pool` right now, sized by
/// the PR-3 `pool.queue_depth` gauge: a backlogged pool (other work
/// already queued on it) gets a small fan-out — extra tasks would only
/// queue — while an idle pool gets 2× its workers for load balancing.
std::size_t subtree_fanout(const ThreadPool& pool) {
  const std::size_t workers = pool.thread_count();
  std::size_t backlog = pool.pending();
#if HGP_OBS_ENABLED
  static obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("pool.queue_depth");
  backlog = std::max(
      backlog, static_cast<std::size_t>(
                   std::max<std::int64_t>(0, queue_depth.value())));
#endif
  const std::size_t available = backlog >= workers ? 1 : workers - backlog;
  return available * 2;
}

}  // namespace

const SignatureSpace* SharedSignatureSpace::acquire(const ScaledDemands& sd,
                                                    int height) {
  const MutexLock lock(mu_);
  if (!space_.has_value()) {
    space_.emplace(sd, height);
    units_per_capacity_ = sd.units_per_capacity;
    total_ = sd.total;
    capacity_ = sd.capacity;
  }
  const bool match = space_->height() == height &&
                     units_per_capacity_ == sd.units_per_capacity &&
                     total_ == sd.total && capacity_ == sd.capacity;
  return match ? &*space_ : nullptr;
}

TreeDpResult solve_rhgpt(const Tree& t, const Hierarchy& h,
                         const TreeDpOptions& opt) {
  const int height = h.height();
  TreeDpResult result;
  HGP_TRACE_SPAN_ARG("dp.solve", t.leaf_count());
  if (opt.exec != nullptr) opt.exec->check("tree DP setup");
  PeriodicCheck guard(opt.exec, "tree DP merge loop", 4096);

  // 1. Binarize and round demands (leaf demands are identical after
  //    binarization, only node ids differ).
  const BinarizedTree bin = binarize(t);
  const Tree& bt = bin.tree;
  const ScaledDemands sd =
      scale_demands(bt, h, opt.epsilon, opt.units_override);
  if (sd.total > sd.capacity_at(0)) {
    std::ostringstream os;
    os << "instance infeasible: total rounded demand " << sd.total
       << " units exceeds hierarchy capacity " << sd.capacity_at(0)
       << " units";
    throw SolveError(StatusCode::kInfeasible, os.str());
  }

  // 2. Signature space — the solve's shared one when its parameters
  //    match, else a private one — and the Δ/2 prefix sums.
  const SignatureSpace* shared =
      opt.shared_space != nullptr ? opt.shared_space->acquire(sd, height)
                                  : nullptr;
  std::optional<SignatureSpace> own;
  if (shared == nullptr) own.emplace(sd, height);
  const SignatureSpace& space = shared != nullptr ? *shared : *own;
  result.stats.signature_count = space.size();
  std::vector<double> ps(static_cast<std::size_t>(height) + 1, 0.0);
  for (int k = 1; k <= height; ++k) {
    ps[static_cast<std::size_t>(k)] =
        ps[static_cast<std::size_t>(k - 1)] + (h.cm(k - 1) - h.cm(k)) / 2.0;
  }

  // 3. Bottom-up DP.  Independent subtrees run as pool tasks when a pool
  //    is supplied (each task with its own scratch, so the hot loops never
  //    contend); the remaining top of the tree — and the whole tree in the
  //    sequential case — runs on the caller's thread.
  std::vector<NodeTable> tables(static_cast<std::size_t>(bt.node_count()));
  const bool prune =
      opt.force_prune || (opt.prune_dominated && dp_prune_env_enabled());
  std::optional<ReusePlan> reuse_plan;
  std::vector<DpSubtreeEntry> capture_slots;
  if (opt.reuse_in != nullptr || opt.reuse_out != nullptr) {
    reuse_plan.emplace(
        make_reuse_plan(bt, sd, space, height, prune, opt.reuse_in));
  }
  if (opt.reuse_out != nullptr) {
    capture_slots.resize(static_cast<std::size_t>(bt.node_count()));
  }
  const DpEngine engine{bt,     space,
                        sd,     ps,
                        prune,  tables,
                        reuse_plan.has_value() ? &*reuse_plan : nullptr,
                        opt.reuse_out != nullptr ? &capture_slots : nullptr};
  std::vector<std::unique_ptr<NodeScratch>> scratches;
  scratches.push_back(std::make_unique<NodeScratch>(space.size()));
  NodeScratch& main_scratch = *scratches.front();

  bool parallel = false;
  if (opt.pool != nullptr && opt.pool->thread_count() > 0 &&
      !opt.pool->is_worker_thread() &&
      bt.node_count() >= opt.min_parallel_nodes) {
    const SubtreePlan plan = plan_subtrees(bt, subtree_fanout(*opt.pool));
    if (plan.slices.size() >= 2) {
      parallel = true;
      HGP_TRACE_SPAN_ARG("dp.subtree_tasks", plan.slices.size());
      result.stats.subtree_tasks = plan.slices.size();
      std::vector<TreeDpStats> task_stats(plan.slices.size());
      std::vector<std::future<void>> futures;
      futures.reserve(plan.slices.size());
      for (std::size_t i = 0; i < plan.slices.size(); ++i) {
        scratches.push_back(std::make_unique<NodeScratch>(space.size()));
        NodeScratch& task_scratch = *scratches.back();
        const auto [lo, hi] = plan.slices[i];
        TreeDpStats& stats = task_stats[i];
        futures.push_back(opt.pool->submit(
            [&engine, &bt, &task_scratch, &stats, lo, hi, exec = opt.exec] {
              PeriodicCheck task_guard(exec, "tree DP subtree task", 4096);
              for (std::size_t idx = hi; idx-- > lo;) {
                engine.process(bt.preorder()[idx], task_scratch, stats,
                               task_guard);
              }
            }));
      }
      std::exception_ptr first_error;
      for (auto& f : futures) {
        try {
          f.get();
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (first_error) std::rethrow_exception(first_error);
      for (const TreeDpStats& s : task_stats) {
        result.stats.feasible_states += s.feasible_states;
        result.stats.merge_operations += s.merge_operations;
        result.stats.merges_rejected += s.merges_rejected;
        result.stats.states_pruned += s.states_pruned;
        result.stats.nodes_built += s.nodes_built;
        result.stats.nodes_reused += s.nodes_reused;
      }
      // Finish the ancestors of the subtree roots, children-first.
      for (auto it = bt.preorder().rbegin(); it != bt.preorder().rend();
           ++it) {
        if (plan.is_top[static_cast<std::size_t>(*it)] != 0) {
          engine.process(*it, main_scratch, result.stats, guard);
        }
      }
    }
  }
  if (!parallel) {
    for (auto it = bt.preorder().rbegin(); it != bt.preorder().rend(); ++it) {
      engine.process(*it, main_scratch, result.stats, guard);
    }
  }
  for (const auto& scratch : scratches) {
    result.stats.arena_bytes += scratch->bytes_reserved();
  }

  // 4. Pick the best root signature.
  const NodeTable& root_table = tables[static_cast<std::size_t>(bt.root())];
  std::size_t best_sig = SignatureSpace::npos;
  double best_cost = kInf;
  for (std::size_t i = 0; i < root_table.feasible.size(); ++i) {
    if (root_table.cost[i] < best_cost) {
      best_cost = root_table.cost[i];
      best_sig = root_table.feasible[i];
    }
  }
  if (best_sig == SignatureSpace::npos) {
    throw SolveError(StatusCode::kInfeasible,
                     "no feasible RHGPT solution (capacities too tight for "
                     "the rounded demands)");
  }
  result.cost = best_cost;

  // 5. Reconstruct the family of collections by replaying back-pointers
  //    top-down.  active[k-1] = index of the (v,k)-active set within
  //    sets[k] (allocated for every present level; phantom regions that
  //    never absorb a leaf are filtered at the end), or -1 when absent.
  RhgptSolution& sol = result.solution;
  sol.sets.assign(static_cast<std::size_t>(height) + 1, {});
  sol.dp_cost = best_cost;
  sol.sets[0].emplace_back();  // the single level-0 set

  auto new_set = [&](int level) {
    sol.sets[static_cast<std::size_t>(level)].emplace_back();
    return narrow<int>(sol.sets[static_cast<std::size_t>(level)].size() - 1);
  };

  std::vector<int> root_active(static_cast<std::size_t>(height), -1);
  for (int j = 1; j <= space.present(best_sig); ++j) {
    root_active[static_cast<std::size_t>(j - 1)] = new_set(j);
  }

  // Kept child regions join the parent's region; regions above the kept
  // prefix close into fresh sets (the merge() semantics of Claim 1).
  auto child_active = [&](std::size_t child_sig, int cut_level,
                          const std::vector<int>& parent_active) {
    std::vector<int> active(static_cast<std::size_t>(height), -1);
    const int pc = space.present(child_sig);
    const int kept = std::min(cut_level, pc);
    for (int k = 1; k <= pc; ++k) {
      if (k <= kept) {
        HGP_ASSERT(parent_active[static_cast<std::size_t>(k - 1)] >= 0);
        active[static_cast<std::size_t>(k - 1)] =
            parent_active[static_cast<std::size_t>(k - 1)];
      } else {
        active[static_cast<std::size_t>(k - 1)] = new_set(k);
      }
    }
    return active;
  };

  auto rec = [&](auto&& self, Vertex v, std::uint32_t sig,
                 const std::vector<int>& active) -> void {
    const auto kids = bt.children(v);
    if (kids.empty()) {
      const Vertex orig = bin.original_of[static_cast<std::size_t>(v)];
      HGP_ASSERT(orig != kInvalidVertex && t.is_leaf(orig));
      sol.sets[0][0].push_back(orig);
      for (int j = 1; j <= height; ++j) {
        const int id = active[static_cast<std::size_t>(j - 1)];
        HGP_ASSERT(id >= 0);  // leaves are present at every level
        sol.sets[static_cast<std::size_t>(j)][static_cast<std::size_t>(id)]
            .push_back(orig);
      }
      return;
    }
    const Back& back = tables[static_cast<std::size_t>(v)].lookup(sig);
    self(self, kids[0], back.sig1,
         child_active(back.sig1, back.j1, active));
    if (kids.size() == 2) {
      self(self, kids[1], back.sig2,
           child_active(back.sig2, back.j2, active));
    }
  };
  rec(rec, bt.root(), narrow<std::uint32_t>(best_sig), root_active);

  // Drop phantom sets (regions that never absorbed a leaf) and sort.
  for (auto& level : sol.sets) {
    level.erase(std::remove_if(level.begin(), level.end(),
                               [](const std::vector<Vertex>& s) {
                                 return s.empty();
                               }),
                level.end());
    for (auto& set : level) std::sort(set.begin(), set.end());
  }

  // Demand scaling re-indexed by original tree nodes for the caller.
  result.scaled.units_per_capacity = sd.units_per_capacity;
  result.scaled.total = sd.total;
  result.scaled.capacity = sd.capacity;
  result.scaled.units.assign(static_cast<std::size_t>(t.node_count()), 0);
  for (Vertex b = 0; b < bt.node_count(); ++b) {
    const Vertex orig = bin.original_of[static_cast<std::size_t>(b)];
    if (orig != kInvalidVertex && bt.is_leaf(b)) {
      result.scaled.units[static_cast<std::size_t>(orig)] =
          sd.units[static_cast<std::size_t>(b)];
    }
  }

  // 6. Hand this solve's subtree tables to the caller so the next
  //    incremental solve can skip clean subtrees.  Only successful solves
  //    populate the store (the assembly sits after the feasibility throw).
  if (opt.reuse_out != nullptr) {
    DpReuseStore& store = *opt.reuse_out;
    store.height = height;
    store.prune = prune;
    store.units_per_capacity = sd.units_per_capacity;
    store.total = sd.total;
    store.capacity = sd.capacity;
    store.entries.clear();
    store.entries.reserve(capture_slots.size());
    for (Vertex v = 0; v < bt.node_count(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      store.entries[reuse_plan->hash[vi]] = std::move(capture_slots[vi]);
    }
  }
  publish_dp_metrics(result.stats, bt, sd);
  return result;
}

}  // namespace hgp
