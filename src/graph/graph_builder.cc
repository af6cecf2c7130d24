#include "graph/graph_builder.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/strings.h"

namespace kcore {

StatusOr<BuiltGraph> BuildGraph(const EdgeList& edges,
                                const BuildOptions& options) {
  BuiltGraph out;

  // Pass 1: map every kept endpoint to its dense ID once (first-appearance
  // order when recoding), caching the pair for the counting passes.
  std::vector<VertexId> ends;
  ends.reserve(2 * edges.size());
  VertexId num_vertices = 0;
  if (options.recode_ids) {
    std::unordered_map<uint64_t, VertexId> id_map;
    id_map.reserve(edges.size());
    for (const RawEdge& e : edges) {
      if (options.remove_self_loops && e.u == e.v) continue;
      for (uint64_t raw : {e.u, e.v}) {
        // try_emplace, unlike emplace, builds no node for a known ID.
        auto [it, inserted] =
            id_map.try_emplace(raw, static_cast<VertexId>(id_map.size()));
        if (inserted) {
          if (id_map.size() > std::numeric_limits<VertexId>::max()) {
            return Status::InvalidArgument("too many distinct vertex IDs");
          }
          out.original_ids.push_back(raw);
        }
        ends.push_back(it->second);
      }
    }
    num_vertices = static_cast<VertexId>(id_map.size());
  } else {
    uint64_t max_raw_id = 0;
    for (const RawEdge& e : edges) {
      max_raw_id = std::max({max_raw_id, e.u, e.v});
    }
    if (!edges.empty() &&
        max_raw_id >= std::numeric_limits<VertexId>::max()) {
      return Status::InvalidArgument(
          StrFormat("vertex ID %llu exceeds dense range; enable recode_ids",
                    static_cast<unsigned long long>(max_raw_id)));
    }
    num_vertices = edges.empty() ? 0 : static_cast<VertexId>(max_raw_id + 1);
    for (const RawEdge& e : edges) {
      if (options.remove_self_loops && e.u == e.v) continue;
      ends.push_back(static_cast<VertexId>(e.u));
      ends.push_back(static_cast<VertexId>(e.v));
    }
  }

  // Every arc (source -> target): u -> v per edge, plus v -> u when
  // undirected. Count both endpoint degrees at once.
  const size_t n = num_vertices;
  std::vector<EdgeIndex> by_target(n + 1, 0);
  std::vector<EdgeIndex> offsets(n + 1, 0);
  for (size_t i = 0; i < ends.size(); i += 2) {
    ++offsets[ends[i] + 1];
    ++by_target[ends[i + 1] + 1];
    if (options.make_undirected) {
      ++offsets[ends[i + 1] + 1];
      ++by_target[ends[i] + 1];
    }
  }
  for (size_t v = 0; v < n; ++v) {
    offsets[v + 1] += offsets[v];
    by_target[v + 1] += by_target[v];
  }

  // Counting pass A: bucket each arc's source by its target.
  std::vector<VertexId> sources(by_target[n]);
  {
    std::vector<EdgeIndex> cursor(by_target.begin(), by_target.end() - 1);
    for (size_t i = 0; i < ends.size(); i += 2) {
      sources[cursor[ends[i + 1]]++] = ends[i];
      if (options.make_undirected) sources[cursor[ends[i]]++] = ends[i + 1];
    }
  }
  ends = {};

  // Counting pass B: walk targets in increasing order and append each to
  // its sources' lists, so every list comes out sorted with duplicates
  // adjacent — the order a per-list sort would give, in O(V + E).
  std::vector<VertexId> neighbors(offsets[n]);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t t = 0; t < n; ++t) {
    for (EdgeIndex i = by_target[t]; i < by_target[t + 1]; ++i) {
      const VertexId s = sources[i];
      if (options.dedup && cursor[s] != offsets[s] &&
          neighbors[cursor[s] - 1] == t) {
        continue;
      }
      neighbors[cursor[s]++] = static_cast<VertexId>(t);
    }
  }
  sources = {};
  by_target = {};

  if (options.dedup) {
    // Close the gaps dropped duplicates left at the end of each list.
    EdgeIndex write = 0;
    for (size_t v = 0; v < n; ++v) {
      const EdgeIndex begin = offsets[v];
      offsets[v] = write;
      for (EdgeIndex i = begin; i < cursor[v]; ++i) {
        neighbors[write++] = neighbors[i];
      }
    }
    offsets[n] = write;
    neighbors.resize(write);
    neighbors.shrink_to_fit();
  }

  out.graph = CsrGraph(std::move(offsets), std::move(neighbors));
  return out;
}

CsrGraph BuildUndirectedGraph(const EdgeList& edges) {
  BuildOptions options;
  options.recode_ids = false;
  auto built = BuildGraph(edges, options);
  KCORE_CHECK(built.ok());
  return std::move(built->graph);
}

CsrGraph BuildUndirectedGraphWithVertexCount(const EdgeList& edges,
                                             VertexId num_vertices) {
  // Append a sentinel self-loop on the last vertex so the builder sees the
  // full vertex range, then rely on self-loop removal to drop it.
  EdgeList padded = edges;
  if (num_vertices > 0) {
    padded.push_back({num_vertices - 1, num_vertices - 1});
  }
  BuildOptions options;
  options.recode_ids = false;
  auto built = BuildGraph(padded, options);
  KCORE_CHECK(built.ok());
  KCORE_CHECK(built->graph.NumVertices() <= num_vertices);
  if (built->graph.NumVertices() == num_vertices) {
    return std::move(built->graph);
  }
  // Input had trailing isolated vertices beyond any edge endpoint: rebuild
  // the offsets with the requested vertex count.
  const CsrGraph& g = built->graph;
  std::vector<EdgeIndex> offsets(g.offsets());
  offsets.resize(static_cast<size_t>(num_vertices) + 1, offsets.back());
  return CsrGraph(std::move(offsets),
                  std::vector<VertexId>(g.neighbors()));
}

}  // namespace kcore
