#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "generators/citation.h"
#include "generators/generators.h"
#include "graph/csr_graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/subgraph.h"
#include "test_graphs.h"

namespace kcore {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes `text` verbatim (binary mode: CRLFs and NULs survive) to a temp
/// file and returns its path.
std::string WriteTemp(const std::string& name, const std::string& text) {
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return path;
  EXPECT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
  return path;
}

// -------------------------------------------------------------- CsrGraph --

TEST(CsrGraphTest, EmptyGraph) {
  CsrGraph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumDirectedEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(CsrGraphTest, AccessorsOnTriangle) {
  const CsrGraph g = BuildUndirectedGraph({{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumUndirectedEdges(), 3u);
  EXPECT_EQ(g.NumDirectedEdges(), 6u);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.Degree(v), 2u);
    EXPECT_EQ(g.Neighbors(v).size(), 2u);
  }
  EXPECT_TRUE(g.Validate().ok());
}

TEST(CsrGraphTest, DegreeArrayMatchesDegrees) {
  const auto g = testing::PaperFigureGraph().graph;
  const auto deg = g.DegreeArray();
  ASSERT_EQ(deg.size(), g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(deg[v], g.Degree(v));
  }
}

TEST(CsrGraphTest, ValidateRejectsAsymmetry) {
  // Hand-build a broken graph: edge 0->1 without 1->0.
  CsrGraph g({0, 1, 1}, {1});
  const Status s = g.Validate();
  EXPECT_TRUE(s.IsCorruption());
}

TEST(CsrGraphTest, ValidateRejectsSelfLoop) {
  CsrGraph g({0, 1}, {0});
  EXPECT_TRUE(g.Validate().IsCorruption());
}

TEST(CsrGraphTest, MemoryBytesPositive) {
  const auto g = testing::CliqueGraph(5).graph;
  EXPECT_GT(g.MemoryBytes(), 0u);
}

// ---------------------------------------------------------- GraphBuilder --

TEST(GraphBuilderTest, UndirectedizesAndDedups) {
  // Duplicate edges and both directions collapse to one undirected edge.
  const CsrGraph g =
      BuildUndirectedGraph({{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumUndirectedEdges(), 2u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, RemovesSelfLoops) {
  const CsrGraph g = BuildUndirectedGraph({{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.NumUndirectedEdges(), 1u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, RecodesSparseIds) {
  EdgeList edges = {{1000000007ull, 42ull}, {42ull, 99999ull}};
  auto built = BuildGraph(edges);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->graph.NumVertices(), 3u);
  EXPECT_EQ(built->graph.NumUndirectedEdges(), 2u);
  ASSERT_EQ(built->original_ids.size(), 3u);
  // Dense IDs assigned in first-appearance order.
  EXPECT_EQ(built->original_ids[0], 1000000007ull);
  EXPECT_EQ(built->original_ids[1], 42ull);
  EXPECT_EQ(built->original_ids[2], 99999ull);
}

TEST(GraphBuilderTest, NoRecodeRejectsHugeIds) {
  BuildOptions options;
  options.recode_ids = false;
  EdgeList edges = {{0, 1ull << 40}};
  auto built = BuildGraph(edges, options);
  EXPECT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, AdjacencySorted) {
  const CsrGraph g = BuildUndirectedGraph({{3, 1}, {3, 0}, {3, 2}});
  const auto nbrs = g.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphBuilderTest, VertexCountPreservesIsolated) {
  const CsrGraph g = BuildUndirectedGraphWithVertexCount({{0, 1}}, 5);
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, DirectedKeepsOneDirection) {
  BuildOptions options;
  options.make_undirected = false;
  options.recode_ids = false;
  auto built = BuildGraph({{0, 1}, {2, 1}}, options);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->graph.Degree(0), 1u);
  EXPECT_EQ(built->graph.Degree(1), 0u);
  EXPECT_EQ(built->graph.Degree(2), 1u);
}

/// The sort-based builder BuildGraph replaced, kept as the oracle for its
/// output: id_map pass, counting scatter into CSR slots, then a comparison
/// sort and optional dedup of every adjacency list.
StatusOr<BuiltGraph> SortBasedBuildGraph(const EdgeList& edges,
                                         const BuildOptions& options) {
  BuiltGraph out;
  std::unordered_map<uint64_t, VertexId> id_map;
  uint64_t max_raw_id = 0;
  if (options.recode_ids) {
    for (const RawEdge& e : edges) {
      for (uint64_t raw : {e.u, e.v}) {
        if (options.remove_self_loops && e.u == e.v) continue;
        id_map.emplace(raw, static_cast<VertexId>(id_map.size()));
      }
    }
  } else {
    for (const RawEdge& e : edges) {
      max_raw_id = std::max({max_raw_id, e.u, e.v});
    }
    if (!edges.empty() &&
        max_raw_id >= std::numeric_limits<VertexId>::max()) {
      return Status::InvalidArgument(
          StrFormat("vertex ID %llu exceeds dense range; enable recode_ids",
                    static_cast<unsigned long long>(max_raw_id)));
    }
  }
  const VertexId num_vertices =
      options.recode_ids
          ? static_cast<VertexId>(id_map.size())
          : (edges.empty() ? 0 : static_cast<VertexId>(max_raw_id + 1));
  auto dense = [&](uint64_t raw) -> VertexId {
    return options.recode_ids ? id_map.find(raw)->second
                              : static_cast<VertexId>(raw);
  };

  std::vector<EdgeIndex> offsets(static_cast<size_t>(num_vertices) + 1, 0);
  for (const RawEdge& e : edges) {
    if (options.remove_self_loops && e.u == e.v) continue;
    ++offsets[dense(e.u) + 1];
    if (options.make_undirected) ++offsets[dense(e.v) + 1];
  }
  for (VertexId v = 0; v < num_vertices; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> neighbors(offsets[num_vertices]);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const RawEdge& e : edges) {
    if (options.remove_self_loops && e.u == e.v) continue;
    const VertexId u = dense(e.u);
    const VertexId v = dense(e.v);
    neighbors[cursor[u]++] = v;
    if (options.make_undirected) neighbors[cursor[v]++] = u;
  }

  std::vector<EdgeIndex> new_offsets(static_cast<size_t>(num_vertices) + 1);
  EdgeIndex write = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const auto begin = static_cast<ptrdiff_t>(offsets[v]);
    const auto end = static_cast<ptrdiff_t>(offsets[v + 1]);
    std::sort(neighbors.begin() + begin, neighbors.begin() + end);
    new_offsets[v] = write;
    VertexId prev = std::numeric_limits<VertexId>::max();
    for (auto i = begin; i < end; ++i) {
      if (options.dedup && neighbors[i] == prev) continue;
      prev = neighbors[i];
      neighbors[write++] = neighbors[i];
    }
  }
  new_offsets[num_vertices] = write;
  neighbors.resize(write);
  out.graph = CsrGraph(std::move(new_offsets), std::move(neighbors));
  if (options.recode_ids) {
    out.original_ids.resize(num_vertices);
    for (const auto& [raw, id] : id_map) out.original_ids[id] = raw;
  }
  return out;
}

/// A seeded random edge list mixing every shape the builder must handle:
/// duplicate edges (both orientations), self-loops, two dense id ranges with
/// an isolated gap between them, and (when `sparse`) arbitrary 64-bit ids.
EdgeList RandomEdgeList(uint64_t seed, bool sparse) {
  Rng rng(seed);
  const size_t count = 1 + rng.UniformInt(400);
  std::vector<uint64_t> pool;
  const size_t ids = 1 + rng.UniformInt(60);
  for (size_t i = 0; i < ids; ++i) {
    if (sparse && rng.UniformReal() < 0.3) {
      pool.push_back(rng.Next());
    } else {
      // [0, 40) and [500, 540): ids 40..499 stay isolated.
      const uint64_t id = rng.UniformInt(40);
      pool.push_back(rng.UniformReal() < 0.5 ? id : 500 + id);
    }
  }
  EdgeList edges;
  for (size_t i = 0; i < count; ++i) {
    const double shape = rng.UniformReal();
    if (shape < 0.1) {
      const uint64_t x = pool[rng.UniformInt(pool.size())];
      edges.push_back({x, x});
    } else if (shape < 0.3 && !edges.empty()) {
      RawEdge again = edges[rng.UniformInt(edges.size())];
      if (rng.UniformReal() < 0.5) std::swap(again.u, again.v);
      edges.push_back(again);
    } else {
      edges.push_back({pool[rng.UniformInt(pool.size())],
                       pool[rng.UniformInt(pool.size())]});
    }
  }
  return edges;
}

TEST(GraphBuilderTest, CountingBuildMatchesSortBasedOracle) {
  int compared = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const EdgeList edges = RandomEdgeList(seed, /*sparse=*/seed % 3 == 0);
    for (int mask = 0; mask < 16; ++mask) {
      BuildOptions options;
      options.make_undirected = (mask & 1) != 0;
      options.remove_self_loops = (mask & 2) != 0;
      options.dedup = (mask & 4) != 0;
      options.recode_ids = (mask & 8) != 0;
      SCOPED_TRACE(StrFormat("seed %llu options mask %d",
                             static_cast<unsigned long long>(seed), mask));
      auto got = BuildGraph(edges, options);
      auto want = SortBasedBuildGraph(edges, options);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) {
        EXPECT_EQ(got.status().ToString(), want.status().ToString());
        continue;
      }
      EXPECT_EQ(got->graph.offsets(), want->graph.offsets());
      EXPECT_EQ(got->graph.neighbors(), want->graph.neighbors());
      EXPECT_EQ(got->original_ids, want->original_ids);
      // Sorted lists are the builder's own contract, dedup or not.
      for (VertexId v = 0; v < got->graph.NumVertices(); ++v) {
        const auto nbrs = got->graph.Neighbors(v);
        EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
      }
      ++compared;
    }
  }
  // The sparse lists only build with recoding; everything else must have
  // been compared, not skipped as a matching failure.
  EXPECT_GT(compared, 60 * 16 * 3 / 4);
}

// ---------------------------------------------------------------- IO -----

TEST(GraphIoTest, EdgeListTextRoundTrip) {
  EdgeList edges = {{0, 1}, {2, 3}, {1, 2}};
  const std::string path = TempPath("edges.txt");
  ASSERT_TRUE(SaveEdgeListText(edges, path).ok());
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, edges);
}

TEST(GraphIoTest, EdgeListSkipsCommentsAndBlank) {
  const std::string path = TempPath("commented.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# header\n% konect style\n\n 0\t1\n2 3 extra\n", f);
  std::fclose(f);
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[1].v, 3u);
}

TEST(GraphIoTest, EdgeListRejectsGarbage) {
  const std::string path = TempPath("bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("0 1\nnot numbers\n", f);
  std::fclose(f);
  const Status s = LoadEdgeListText(path).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The error names the file and the offending line.
  EXPECT_NE(s.message().find(":2:"), std::string::npos) << s.ToString();
}

TEST(GraphIoTest, EdgeListRejectsTruncatedLine) {
  const std::string path = TempPath("truncated.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("0 1\n1 2\n7\n", f);  // last line lost its target endpoint
  std::fclose(f);
  const Status s = LoadEdgeListText(path).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find(":3:"), std::string::npos) << s.ToString();
}

TEST(GraphIoTest, EdgeListRejectsNegativeIds) {
  // sscanf's %llu silently wraps "-3" to a huge vertex id; the strict parser
  // must reject it instead of fabricating a 2^64-scale graph.
  const std::string path = TempPath("negative.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("0 -3\n", f);
  std::fclose(f);
  const Status s = LoadEdgeListText(path).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("negative"), std::string::npos) << s.ToString();
}

TEST(GraphIoTest, EdgeListRejectsOverflowAndStuckTokens) {
  const std::string path = TempPath("overflow.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("99999999999999999999999999 1\n", f);  // > 2^64
  std::fclose(f);
  EXPECT_TRUE(LoadEdgeListText(path).status().IsInvalidArgument());

  const std::string stuck = TempPath("stuck.txt");
  f = std::fopen(stuck.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1 2x\n", f);  // target runs into garbage
  std::fclose(f);
  EXPECT_TRUE(LoadEdgeListText(stuck).status().IsInvalidArgument());
}

TEST(GraphIoTest, EdgeListLineEndings) {
  const EdgeList want = {{0, 1}, {2, 3}};
  // A last line without its newline, CRLF endings, trailing blank lines and
  // a whitespace-only line all load the same two edges.
  for (const char* text :
       {"0 1\n2 3", "0 1\r\n2 3\r\n", "0 1\n2 3\n\n\n",
        "0 1\n \t \r\n2 3\n", "0 1\r\n\r\n2 3\r\n\r\n"}) {
    auto loaded = LoadEdgeListText(WriteTemp("endings.txt", text));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, want) << "input: " << text;
  }
}

TEST(GraphIoTest, EmptyEdgeListFileLoadsNoEdges) {
  auto loaded = LoadEdgeListText(WriteTemp("empty.txt", ""));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
}

TEST(GraphIoTest, EdgeListErrorNamesLineAfterComments) {
  const std::string path =
      WriteTemp("late_error.txt", "# header\n% konect\n0 1\n\n# more\nx y\n");
  EXPECT_EQ(LoadEdgeListText(path).status().ToString(),
            Status::InvalidArgument(path +
                                    ":6: non-numeric source token: 'x y'")
                .ToString());
  // The same on an unterminated last line, and for every message kind.
  const std::string tail = WriteTemp("late_tail.txt", "# c\n0 1\n7");
  EXPECT_EQ(LoadEdgeListText(tail).status().message(),
            tail + ":3: truncated edge line (missing target): '7'");
  const std::string neg = WriteTemp("late_neg.txt", "\n\n4 -1\r\n");
  EXPECT_EQ(LoadEdgeListText(neg).status().message(),
            neg + ":3: negative vertex id for target: '4 -1\r'");
  const std::string big = WriteTemp(
      "late_big.txt", "% c\n99999999999999999999 1 0123456789012345678\n");
  EXPECT_EQ(LoadEdgeListText(big).status().message(),
            big +
                ":2: vertex id overflows 64 bits for source: "
                "'99999999999999999999 1 01234567890123456...'");
}

TEST(GraphIoTest, EdgeListLinesSplitAcrossReadChunks) {
  // Well past 64 KiB, with a line straddling every 64 KiB boundary (line
  // lengths are coprime with the boundary), one line longer than 64 KiB
  // and an error after it.
  std::string text;
  EdgeList want;
  for (uint64_t i = 0; text.size() < (200u << 10); ++i) {
    const uint64_t u = i * 7919 % 100003;
    text += std::to_string(u) + "\t" + std::to_string(i) + "\n";
    want.push_back({u, i});
    if (i == 5000) {
      text += "3 4 " + std::string(70u << 10, '9') + "\n";
      want.push_back({3, 4});
    }
  }
  const std::string path = WriteTemp("big.txt", text);
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, want);

  const size_t lines = want.size();
  const std::string bad = WriteTemp("big_bad.txt", text + "5 6x\n");
  EXPECT_EQ(LoadEdgeListText(bad).status().message(),
            StrFormat("%s:%zu: non-numeric target token: '5 6x'", bad.c_str(),
                      lines + 1));
}

TEST(GraphIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadEdgeListText("/nonexistent/x.txt").status().IsIOError());
  EXPECT_TRUE(LoadCsrBinary("/nonexistent/x.bin").status().IsIOError());
}

TEST(GraphIoTest, CsrBinaryRoundTrip) {
  const auto g = testing::PaperFigureGraph().graph;
  const std::string path = TempPath("graph.bin");
  ASSERT_TRUE(SaveCsrBinary(g, path).ok());
  auto loaded = LoadCsrBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == g);
}

TEST(GraphIoTest, CsrBinaryDetectsCorruption) {
  const auto g = testing::CliqueGraph(6).graph;
  const std::string path = TempPath("corrupt.bin");
  ASSERT_TRUE(SaveCsrBinary(g, path).ok());
  // Flip one payload byte (XOR so the value is guaranteed to change).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 48, SEEK_SET);
  const int original = std::fgetc(f);
  ASSERT_NE(original, EOF);
  std::fseek(f, 48, SEEK_SET);
  std::fputc(original ^ 0xff, f);
  std::fclose(f);
  EXPECT_TRUE(LoadCsrBinary(path).status().IsCorruption());
}

TEST(GraphIoTest, CsrBinaryRejectsBadMagic) {
  const std::string path = TempPath("notagraph.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (int i = 0; i < 64; ++i) std::fputc(i, f);
  std::fclose(f);
  EXPECT_TRUE(LoadCsrBinary(path).status().IsCorruption());
}

// --------------------------------------------------------------- Stats ---

TEST(GraphStatsTest, CliqueStats) {
  const auto g = testing::CliqueGraph(5).graph;
  const GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.num_vertices, 5u);
  EXPECT_EQ(stats.num_edges, 10u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 4.0);
  EXPECT_DOUBLE_EQ(stats.degree_stddev, 0.0);
  EXPECT_EQ(stats.max_degree, 4u);
}

TEST(GraphStatsTest, StarStatsSkewed) {
  const auto g = testing::StarGraph(10).graph;
  const GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.max_degree, 10u);
  EXPECT_GT(stats.degree_stddev, 2.0);
  EXPECT_NEAR(stats.avg_degree, 20.0 / 11, 1e-9);
}

TEST(GraphStatsTest, EmptyGraphStats) {
  const GraphStats stats = ComputeGraphStats(CsrGraph());
  EXPECT_EQ(stats.num_vertices, 0u);
  EXPECT_EQ(stats.max_degree, 0u);
}

// ------------------------------------------------------------- Subgraph --

TEST(SubgraphTest, InducedTriangle) {
  const auto g = testing::PaperFigureGraph().graph;
  std::vector<bool> keep(g.NumVertices(), false);
  keep[0] = keep[1] = keep[2] = keep[3] = true;  // the K4
  const InducedSubgraph sub = ExtractInducedSubgraph(g, keep);
  EXPECT_EQ(sub.graph.NumVertices(), 4u);
  EXPECT_EQ(sub.graph.NumUndirectedEdges(), 6u);
  EXPECT_TRUE(sub.graph.Validate().ok());
  EXPECT_EQ(sub.parent_ids, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(SubgraphTest, EmptySelection) {
  const auto g = testing::CliqueGraph(4).graph;
  const InducedSubgraph sub =
      ExtractInducedSubgraph(g, std::vector<bool>(4, false));
  EXPECT_EQ(sub.graph.NumVertices(), 0u);
}

TEST(SubgraphTest, CrossEdgesDropped) {
  const auto g = testing::TwoCliquesGraph(4, 4).graph;
  std::vector<bool> keep(g.NumVertices(), false);
  keep[0] = keep[4] = true;  // endpoints of the bridge edge
  const InducedSubgraph sub = ExtractInducedSubgraph(g, keep);
  EXPECT_EQ(sub.graph.NumVertices(), 2u);
  EXPECT_EQ(sub.graph.NumUndirectedEdges(), 1u);
}

// ------------------------------------------------------------ Generators --

TEST(GeneratorsTest, ErdosRenyiExactEdgeCount) {
  const EdgeList edges = GenerateErdosRenyi(100, 500, 3);
  EXPECT_EQ(edges.size(), 500u);
  const CsrGraph g = BuildUndirectedGraph(edges);
  EXPECT_EQ(g.NumUndirectedEdges(), 500u);  // sampling was without repeats
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GeneratorsTest, ErdosRenyiDeterministic) {
  EXPECT_EQ(GenerateErdosRenyi(50, 100, 9), GenerateErdosRenyi(50, 100, 9));
  EXPECT_NE(GenerateErdosRenyi(50, 100, 9), GenerateErdosRenyi(50, 100, 10));
}

TEST(GeneratorsTest, BarabasiAlbertDegrees) {
  const CsrGraph g = BuildUndirectedGraph(GenerateBarabasiAlbert(300, 3, 5));
  EXPECT_EQ(g.NumVertices(), 300u);
  // Every non-seed vertex attached with >= 3 edges.
  for (VertexId v = 4; v < 300; ++v) EXPECT_GE(g.Degree(v), 3u);
  // Preferential attachment produces a hub noticeably above the minimum.
  EXPECT_GT(g.MaxDegree(), 12u);
}

TEST(GeneratorsTest, RmatShapeAndDeterminism) {
  RmatOptions options;
  options.scale = 8;
  options.num_edges = 2000;
  options.seed = 21;
  const EdgeList a = GenerateRmat(options);
  const EdgeList b = GenerateRmat(options);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2000u);
  for (const RawEdge& e : a) {
    EXPECT_LT(e.u, 256u);
    EXPECT_LT(e.v, 256u);
    EXPECT_NE(e.u, e.v);
  }
}

TEST(GeneratorsTest, ChungLuSkewedDegrees) {
  const CsrGraph g =
      BuildUndirectedGraph(GenerateChungLuPowerLaw(2000, 8000, 2.3, 7));
  const GraphStats stats = ComputeGraphStats(g);
  // Power-law: stddev well above the mean.
  EXPECT_GT(stats.degree_stddev, stats.avg_degree);
}

TEST(GeneratorsTest, PlantedCoreRaisesKmax) {
  PlantedCoreOptions planted;
  planted.core_size = 30;
  planted.core_density = 0.9;
  const EdgeList base = GenerateErdosRenyi(500, 700, 3);
  const CsrGraph with_core =
      BuildUndirectedGraph(OverlayPlantedCore(base, 500, planted, 4));
  // The planted community has min internal degree ~0.9*29 ~ 26.
  uint32_t high_degree = 0;
  for (VertexId v = 0; v < with_core.NumVertices(); ++v) {
    if (with_core.Degree(v) >= 20) ++high_degree;
  }
  EXPECT_GE(high_degree, 25u);
}

TEST(GeneratorsTest, HubGraphExtremeSkew) {
  HubGraphOptions options;
  options.num_vertices = 2000;
  options.num_hubs = 4;
  options.spokes_per_vertex = 2;
  options.background_edges = 500;
  const CsrGraph g = BuildUndirectedGraph(GenerateHubGraph(options, 8));
  const GraphStats stats = ComputeGraphStats(g);
  EXPECT_GT(stats.max_degree, 500u);
  EXPECT_GT(stats.degree_stddev, 5 * stats.avg_degree);
}

// ------------------------------------------------------------- Citation --

TEST(CitationTest, CorpusRespectsConfig) {
  CitationOptions options;
  options.num_papers = 500;
  options.num_authors = 200;
  options.seed = 3;
  const CitationCorpus corpus = GenerateCitationCorpus(options);
  ASSERT_EQ(corpus.papers.size(), 500u);
  uint32_t prev_year = 0;
  for (const Paper& p : corpus.papers) {
    EXPECT_GE(p.year, options.first_year);
    EXPECT_LE(p.year, options.last_year);
    EXPECT_GE(p.year, prev_year);  // years non-decreasing
    prev_year = p.year;
    EXPECT_GE(p.authors.size(), 1u);
    for (uint32_t a : p.authors) EXPECT_LT(a, options.num_authors);
  }
}

TEST(CitationTest, ReferencesPointBackward) {
  CitationOptions options;
  options.num_papers = 400;
  options.seed = 5;
  const CitationCorpus corpus = GenerateCitationCorpus(options);
  for (size_t p = 0; p < corpus.papers.size(); ++p) {
    for (uint32_t ref : corpus.papers[p].references) {
      ASSERT_LT(ref, p);
      EXPECT_LE(corpus.papers[ref].year, corpus.papers[p].year);
    }
  }
}

TEST(CitationTest, InteractionNetworkGrowsWithCutoff) {
  CitationOptions options;
  options.num_papers = 1000;
  options.seed = 7;
  const CitationCorpus corpus = GenerateCitationCorpus(options);
  const EdgeList early = BuildAuthorInteractionEdges(corpus, 1990);
  const EdgeList late = BuildAuthorInteractionEdges(corpus, 2000);
  EXPECT_LT(early.size(), late.size());
  EXPECT_GT(early.size(), 0u);
}

}  // namespace
}  // namespace kcore
