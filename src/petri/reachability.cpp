#include "petri/reachability.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppsc {
namespace petri {

std::vector<std::size_t> ReachabilityGraph::word_to(std::size_t node) const {
  std::vector<std::size_t> word;
  while (parent[node] != kNoParent) {
    word.push_back(parent_transition[node]);
    node = parent[node];
  }
  std::reverse(word.begin(), word.end());
  return word;
}

namespace {

// Node ids are the only keys of explore()'s hash set; the hasher and
// the equality read the configuration behind an id from the graph's
// `nodes`, or from the scratch probe when handed kProbeId. Each
// configuration is thus stored once, and a successor is looked up
// without being copied.
constexpr std::size_t kProbeId = static_cast<std::size_t>(-1);

struct NodeStore {
  const std::vector<Config>* nodes;
  const Config* probe;

  const Config& operator[](std::size_t id) const {
    return id == kProbeId ? *probe : (*nodes)[id];
  }
};

// Not noexcept on purpose: libstdc++ then caches each hash code in its
// node, so rehashing and mismatch rejection never re-read `nodes`.
struct NodeHash {
  const NodeStore* store;
  std::size_t operator()(std::size_t id) const {
    return ConfigHash{}((*store)[id]);
  }
};

struct NodeEqual {
  const NodeStore* store;
  bool operator()(std::size_t a, std::size_t b) const {
    return (*store)[a] == (*store)[b];
  }
};

}  // namespace

ReachabilityGraph explore(const PetriNet& net, const std::vector<Config>& roots,
                          const ExploreLimits& limits,
                          const std::function<bool(const Config&)>& stop) {
  obs::ScopedTimer timer("explore");
  obs::ScopedSpan span("explore", "petri");
  // Bucket scans re-hash the config, so collision accounting is only
  // collected when someone is watching.
  const bool count_collisions = obs::MetricRegistry::global().enabled();
  ReachabilityGraph graph;
  ExploreStats& stats = graph.stats;
  // Successors are built in `probe` and copied into `nodes` only when
  // new. The set keeps the default initial bucket count, so its bucket
  // layout (and hence `collisions`) matches a Config-keyed map's.
  Config probe;
  const NodeStore store{&graph.nodes, &probe};
  std::unordered_set<std::size_t, NodeHash, NodeEqual> ids(
      0, NodeHash{&store}, NodeEqual{&store});
  // Appends `probe` as a new node; returns its id.
  const auto intern = [&](std::size_t parent, std::size_t transition) {
    const std::size_t id = graph.nodes.size();
    graph.nodes.push_back(probe);
    graph.edges.emplace_back();
    graph.parent.push_back(parent);
    graph.parent_transition.push_back(transition);
    ids.insert(id);
    if (count_collisions) {
      stats.collisions += ids.bucket_size(ids.bucket(id)) - 1;
    }
    return id;
  };
  {
    obs::ScopedSpan seed_span("explore.seed", "petri");
    for (const Config& root : roots) {
      if (root.size() != net.num_states()) {
        throw std::invalid_argument("explore: root dimension mismatch");
      }
      ++stats.probes;
      probe = root;
      if (ids.count(kProbeId)) continue;
      const std::size_t id = intern(ReachabilityGraph::kNoParent, 0);
      if (!graph.stopped && stop && stop(graph.nodes[id])) graph.stopped = id;
    }
  }
  std::uint64_t candidates = 0;
  {
    obs::ScopedSpan frontier_span("explore.frontier", "petri");
    const SparseForm& sparse = net.sparse();
    // Chunk spans slice the BFS into fixed node windows, so a Perfetto
    // view shows where the expansion slowed down (hash-table growth,
    // widening frontier) without per-node events.
    constexpr std::size_t kChunkNodes = 8192;
    std::optional<obs::ScopedSpan> chunk_span;
    std::vector<std::size_t> enabled;
    for (std::size_t head = 0;
         head < graph.nodes.size() && !graph.stopped; ++head) {
      if (head % kChunkNodes == 0 && graph.nodes.size() > kChunkNodes) {
        chunk_span.emplace("explore.chunk", "petri");
        chunk_span->arg("head", head);
        chunk_span->arg("frontier", graph.nodes.size() - head);
      }
      stats.frontier_peak =
          std::max(stats.frontier_peak, graph.nodes.size() - head);
      // The probe holds the expanded configuration between successors:
      // each firing applies its delta, probes, and undoes it. (Reading
      // nodes[head] directly would dangle once a successor is appended.)
      probe = graph.nodes[head];
      enabled = sparse.empty_pre();
      candidates += enabled.size();
      for (std::size_t p = 0; p < probe.size(); ++p) {
        if (probe[p] == 0) continue;
        const std::vector<std::size_t>& bucket = sparse.by_lowest_pre_place(p);
        candidates += bucket.size();
        for (std::size_t t : bucket) {
          if (sparse.enabled(t, probe)) enabled.push_back(t);
        }
      }
      // Ascending transition order keeps discovery order, edge order and
      // the BFS tree identical to a dense scan over all transitions.
      std::sort(enabled.begin(), enabled.end());
      graph.edges[head].reserve(enabled.size());
      for (std::size_t t : enabled) {
        const SparseRange delta = sparse.delta(t);
        for (const SparseEntry& e : delta) probe[e.place] += e.amount;
        ++stats.probes;
        const auto it = ids.find(kProbeId);
        std::size_t target = kProbeId;
        if (it != ids.end()) {
          target = *it;
        } else if (graph.nodes.size() < limits.max_nodes) {
          target = intern(head, t);
          if (stop && stop(graph.nodes[target])) graph.stopped = target;
        } else {
          graph.truncated = true;
        }
        for (const SparseEntry& e : delta) probe[e.place] -= e.amount;
        if (target == kProbeId) continue;  // dropped: over the node budget
        graph.edges[head].push_back({target, t});
        ++stats.edges;
        if (graph.stopped) break;
      }
    }
  }
  stats.configs = graph.nodes.size();
  stats.truncated = graph.truncated;
  span.arg("configs", stats.configs);
  span.arg("edges", stats.edges);
  span.arg("candidates", candidates);
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) {
    registry.add("explore.configs", stats.configs);
    registry.add("explore.edges", stats.edges);
    registry.add("explore.probes", stats.probes);
    registry.add("explore.collisions", stats.collisions);
    registry.add("explore.truncated", stats.truncated ? 1 : 0);
    registry.record("explore.frontier_peak", stats.frontier_peak);
  }
  return graph;
}

std::optional<Config> fire_word(const PetriNet& net, Config from,
                                const std::vector<std::size_t>& word) {
  for (std::size_t t : word) {
    if (t >= net.num_transitions() || !net.enabled(t, from)) {
      return std::nullopt;
    }
    from = net.fire(t, from);
  }
  return from;
}

SccDecomposition scc_decompose(const ReachabilityGraph& graph) {
  const std::size_t n = graph.nodes.size();
  const std::size_t kNone = static_cast<std::size_t>(-1);
  SccDecomposition out;
  out.component.assign(n, kNone);
  std::vector<std::size_t> index(n, kNone);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;

  struct Frame {
    std::size_t node;
    std::size_t edge;
  };
  std::vector<Frame> call_stack;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::size_t u = frame.node;
      if (frame.edge < graph.edges[u].size()) {
        const std::size_t v = graph.edges[u][frame.edge++].target;
        if (index[v] == kNone) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          call_stack.push_back({v, 0});
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      } else {
        if (lowlink[u] == index[u]) {
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            out.component[w] = out.count;
            if (w == u) break;
          }
          ++out.count;
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const std::size_t up = call_stack.back().node;
          lowlink[up] = std::min(lowlink[up], lowlink[u]);
        }
      }
    }
  }
  out.bottom.assign(out.count, true);
  for (std::size_t u = 0; u < n; ++u) {
    for (const ReachEdge& e : graph.edges[u]) {
      if (out.component[u] != out.component[e.target]) {
        out.bottom[out.component[u]] = false;
      }
    }
  }
  return out;
}

}  // namespace petri
}  // namespace ppsc
