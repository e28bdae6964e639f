// Independent result checker for the benchmark.
//
// Everything here is deliberately written against plain data — an edge
// multiset the benchmark derives from its own inputs, and value/parent
// vectors snapshotted from the system — and never calls into the system's
// engines, reference algorithms or store. A checker that reused the code it
// checks would agree with that code's bugs.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace perfbench {

using risgraph::Edge;
using risgraph::Update;
using risgraph::UpdateKind;
using risgraph::VertexId;
using risgraph::Weight;

/// Value of a vertex no path reaches, for both BFS and SSSP.
inline constexpr uint64_t kUnreached = risgraph::kInfWeight;

/// Edge multiset keyed on (src, dst, weight), with duplicate counts.
class EdgeMultiset {
 public:
  explicit EdgeMultiset(uint64_t num_vertices) : n_(num_vertices) {}

  /// Applies +1 / -1 for an edge update. False when a deletion would take a
  /// key's count below zero (the update stream is then not what the
  /// benchmark believes it submitted).
  bool Apply(const Update& u) {
    if (u.kind == UpdateKind::kInsertEdge) {
      Add(u.edge);
      return true;
    }
    if (u.kind != UpdateKind::kDeleteEdge) return false;
    auto it = counts_.find(Key(u.edge));
    if (it == counts_.end() || it->second == 0) return false;
    if (--it->second == 0) counts_.erase(it);
    --size_;
    return true;
  }

  void Add(const Edge& e) {
    ++counts_[Key(e)];
    ++size_;
  }

  uint64_t Count(VertexId src, VertexId dst, Weight w) const {
    auto it = counts_.find(Key(Edge{src, dst, w}));
    return it == counts_.end() ? 0 : it->second;
  }

  /// Edges including duplicates.
  uint64_t size() const { return size_; }
  uint64_t num_vertices() const { return n_; }

  /// Out-adjacency (one entry per distinct key; duplicates cannot change a
  /// shortest path).
  std::vector<std::vector<std::pair<VertexId, Weight>>> Adjacency() const {
    std::vector<std::vector<std::pair<VertexId, Weight>>> adj(n_);
    for (const auto& [key, count] : counts_) {
      (void)count;
      adj[key.src].emplace_back(key.dst, key.weight);
    }
    return adj;
  }

 private:
  struct KeyT {
    VertexId src;
    VertexId dst;
    Weight weight;
    bool operator==(const KeyT&) const = default;
  };
  struct KeyHash {
    size_t operator()(const KeyT& k) const {
      uint64_t x = k.src * 0x9e3779b97f4a7c15ULL;
      x ^= (k.dst + 0x632be59bd9b4e019ULL) * 0xbf58476d1ce4e5b9ULL;
      x ^= k.weight * 0x94d049bb133111ebULL;
      return static_cast<size_t>(x ^ (x >> 31));
    }
  };
  static KeyT Key(const Edge& e) { return KeyT{e.src, e.dst, e.weight}; }

  uint64_t n_;
  uint64_t size_ = 0;
  std::unordered_map<KeyT, uint64_t, KeyHash> counts_;
};

/// Hop distances from `root` by a plain FIFO breadth-first search.
inline std::vector<uint64_t> PlainBfs(
    const std::vector<std::vector<std::pair<VertexId, Weight>>>& adj,
    VertexId root) {
  std::vector<uint64_t> dist(adj.size(), kUnreached);
  std::queue<VertexId> q;
  dist[root] = 0;
  q.push(root);
  while (!q.empty()) {
    VertexId u = q.front();
    q.pop();
    for (const auto& [v, w] : adj[u]) {
      (void)w;
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

/// Weighted distances from `root` by Dijkstra with a binary heap.
inline std::vector<uint64_t> PlainDijkstra(
    const std::vector<std::vector<std::pair<VertexId, Weight>>>& adj,
    VertexId root) {
  std::vector<uint64_t> dist(adj.size(), kUnreached);
  using Item = std::pair<uint64_t, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[root] = 0;
  heap.push({0, root});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;
    for (const auto& [v, w] : adj[u]) {
      if (d + w < dist[v]) {
        dist[v] = d + w;
        heap.push({dist[v], v});
      }
    }
  }
  return dist;
}

/// One maintained algorithm's final results, as read from the system.
struct AlgoResult {
  std::string name;
  std::vector<uint64_t> value;
  std::vector<VertexId> parent;  // kInvalidVertex for root / unreached
  std::vector<Weight> parent_weight;
};

/// Checks one algorithm's results against a from-scratch recompute over the
/// multiset and checks the dependency-tree property: every reached
/// non-root vertex's parent edge is in the multiset and its value is
/// gen_next(edge weight, parent's value). Returns "" when every check
/// holds, else a description of the first failure.
inline std::string CheckAlgorithm(
    const AlgoResult& r, const std::vector<uint64_t>& expected,
    const EdgeMultiset& edges, VertexId root,
    const std::function<uint64_t(Weight, uint64_t)>& gen_next) {
  if (r.value.size() != expected.size() || r.parent.size() != expected.size())
    return r.name + ": result has " + std::to_string(r.value.size()) +
           " vertices, expected " + std::to_string(expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    if (r.value[v] != expected[v]) {
      return r.name + ": vertex " + std::to_string(v) + " has value " +
             std::to_string(r.value[v]) + ", recompute gives " +
             std::to_string(expected[v]);
    }
    if (v == root || r.value[v] == kUnreached) continue;
    VertexId p = r.parent[v];
    if (p == risgraph::kInvalidVertex || p >= expected.size()) {
      return r.name + ": reached vertex " + std::to_string(v) +
             " has no parent";
    }
    if (edges.Count(p, v, r.parent_weight[v]) == 0) {
      return r.name + ": parent edge (" + std::to_string(p) + "," +
             std::to_string(v) + "," + std::to_string(r.parent_weight[v]) +
             ") is not in the graph";
    }
    if (gen_next(r.parent_weight[v], r.value[p]) != r.value[v]) {
      return r.name + ": vertex " + std::to_string(v) +
             " value does not follow from its parent edge";
    }
  }
  return "";
}

inline uint64_t BfsNext(Weight, uint64_t parent_value) {
  return parent_value + 1;
}
inline uint64_t SsspNext(Weight w, uint64_t parent_value) {
  return parent_value + w;
}

/// Recomputes BFS and SSSP from scratch over `edges` and checks `bfs` and
/// `sssp` against them (see CheckAlgorithm). "" when all holds.
inline std::string CheckResults(const AlgoResult& bfs, const AlgoResult& sssp,
                                const EdgeMultiset& edges, VertexId root) {
  auto adj = edges.Adjacency();
  std::string err =
      CheckAlgorithm(bfs, PlainBfs(adj, root), edges, root, BfsNext);
  if (!err.empty()) return err;
  return CheckAlgorithm(sssp, PlainDijkstra(adj, root), edges, root,
                        SsspNext);
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
