#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"

namespace kcore {

namespace {

constexpr uint64_t kCsrMagic = 0x4b43524547524148ULL;  // "KCREGRAH"
constexpr uint32_t kCsrVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Status WriteAll(std::FILE* f, const void* data, size_t bytes,
                const std::string& path) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Status ReadAll(std::FILE* f, void* data, size_t bytes,
               const std::string& path) {
  if (bytes != 0 && std::fread(data, 1, bytes, f) != bytes) {
    return Status::IOError("short read from " + path);
  }
  return Status::OK();
}

/// A short excerpt of `line` for error messages (whole line if short).
std::string Excerpt(std::string_view line) {
  constexpr size_t kMax = 40;
  if (line.size() <= kMax) return std::string(line);
  return std::string(line.substr(0, kMax)) + "...";
}

bool IsFieldSeparator(char c) {
  return c == ' ' || c == '\t' || c == '\r';
}

/// Parses one nonnegative decimal vertex id starting at line[pos], skipping
/// leading whitespace; advances pos past the token. Unlike sscanf's %llu,
/// this rejects (instead of silently wrapping or truncating) negative ids,
/// non-numeric tokens, and values past uint64 — every way a hand-edited or
/// truncated edge file lies about a vertex.
Status ParseVertexId(const std::string& path, size_t line_no,
                     std::string_view line, const char* what, size_t& pos,
                     uint64_t* out) {
  while (pos < line.size() && IsFieldSeparator(line[pos])) ++pos;
  if (pos >= line.size()) {
    return Status::InvalidArgument(
        StrFormat("%s:%zu: truncated edge line (missing %s): '%s'",
                  path.c_str(), line_no, what, Excerpt(line).c_str()));
  }
  if (line[pos] == '-') {
    return Status::InvalidArgument(
        StrFormat("%s:%zu: negative vertex id for %s: '%s'", path.c_str(),
                  line_no, what, Excerpt(line).c_str()));
  }
  uint64_t value = 0;
  const size_t start = pos;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    const uint64_t digit = static_cast<uint64_t>(line[pos] - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: vertex id overflows 64 bits for %s: '%s'",
                    path.c_str(), line_no, what, Excerpt(line).c_str()));
    }
    value = value * 10 + digit;
    ++pos;
  }
  const bool empty_token = pos == start;
  const bool runs_into_garbage =
      pos < line.size() && !IsFieldSeparator(line[pos]);
  if (empty_token || runs_into_garbage) {
    return Status::InvalidArgument(
        StrFormat("%s:%zu: non-numeric %s token: '%s'", path.c_str(), line_no,
                  what, Excerpt(line).c_str()));
  }
  *out = value;
  return Status::OK();
}

/// Parses one text line (without its '\n'): blank and comment lines are
/// skipped, a data line appends its edge.
Status ParseEdgeLine(const std::string& path, size_t line_no,
                     std::string_view line, EdgeList& edges) {
  size_t pos = 0;
  while (pos < line.size() && IsFieldSeparator(line[pos])) ++pos;
  if (pos >= line.size() || line[pos] == '#' || line[pos] == '%') {
    return Status::OK();
  }
  uint64_t u = 0;
  uint64_t v = 0;
  KCORE_RETURN_IF_ERROR(ParseVertexId(path, line_no, line, "source", pos, &u));
  KCORE_RETURN_IF_ERROR(ParseVertexId(path, line_no, line, "target", pos, &v));
  // Anything after the two endpoints (weights, timestamps) is ignored, as
  // long as it is whitespace-separated — checked by ParseVertexId above.
  edges.push_back({u, v});
  return Status::OK();
}

}  // namespace

StatusOr<EdgeList> LoadEdgeListText(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  // The file is read in fixed-size chunks and parsed in place; the partial
  // line at the end of a chunk is moved to the front of the buffer and
  // completed by the next read (the buffer grows only for a line longer
  // than a chunk).
  constexpr size_t kChunk = 64 << 10;
  std::vector<char> buffer(kChunk);
  size_t carry = 0;
  size_t line_no = 0;
  EdgeList edges;
  for (bool at_eof = false; !at_eof;) {
    if (buffer.size() - carry < kChunk) buffer.resize(carry + kChunk);
    const size_t want = buffer.size() - carry;
    const size_t got = std::fread(buffer.data() + carry, 1, want, file.get());
    if (got < want) {
      if (std::ferror(file.get()) != 0) {
        return Status::IOError("read error on " + path);
      }
      at_eof = true;
    }
    const std::string_view data(buffer.data(), carry + got);
    size_t begin = 0;
    for (size_t end; (end = data.find('\n', begin)) != data.npos;
         begin = end + 1) {
      KCORE_RETURN_IF_ERROR(
          ParseEdgeLine(path, ++line_no, data.substr(begin, end - begin),
                        edges));
    }
    const std::string_view rest = data.substr(begin);
    if (at_eof) {
      // A last line without a trailing newline is still a line.
      if (!rest.empty()) {
        KCORE_RETURN_IF_ERROR(ParseEdgeLine(path, ++line_no, rest, edges));
      }
    } else {
      std::memmove(buffer.data(), rest.data(), rest.size());
      carry = rest.size();
    }
  }
  return edges;
}

Status SaveEdgeListText(const EdgeList& edges, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "w"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  std::fprintf(file.get(), "# kcoregpu edge list: %zu edges\n", edges.size());
  for (const RawEdge& e : edges) {
    std::fprintf(file.get(), "%llu\t%llu\n",
                 static_cast<unsigned long long>(e.u),
                 static_cast<unsigned long long>(e.v));
  }
  if (std::ferror(file.get()) != 0) {
    return Status::IOError("write error on " + path);
  }
  return Status::OK();
}

Status SaveCsrBinary(const CsrGraph& graph, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const auto& offsets = graph.offsets();
  const auto& neighbors = graph.neighbors();
  const uint64_t header[4] = {kCsrMagic, kCsrVersion, offsets.size(),
                              neighbors.size()};
  KCORE_RETURN_IF_ERROR(WriteAll(file.get(), header, sizeof(header), path));
  KCORE_RETURN_IF_ERROR(WriteAll(file.get(), offsets.data(),
                                 offsets.size() * sizeof(EdgeIndex), path));
  KCORE_RETURN_IF_ERROR(WriteAll(file.get(), neighbors.data(),
                                 neighbors.size() * sizeof(VertexId), path));
  uint64_t checksum = 0xcbf29ce484222325ULL;
  checksum =
      Fnv1a(offsets.data(), offsets.size() * sizeof(EdgeIndex), checksum);
  checksum =
      Fnv1a(neighbors.data(), neighbors.size() * sizeof(VertexId), checksum);
  KCORE_RETURN_IF_ERROR(
      WriteAll(file.get(), &checksum, sizeof(checksum), path));
  if (std::fflush(file.get()) != 0) {
    return Status::IOError("flush failed on " + path);
  }
  return Status::OK();
}

StatusOr<CsrGraph> LoadCsrBinary(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek " + path);
  }
  const long file_size = std::ftell(file.get());
  if (file_size < 0) {
    return Status::IOError("cannot measure " + path);
  }
  std::rewind(file.get());
  uint64_t header[4] = {0, 0, 0, 0};
  KCORE_RETURN_IF_ERROR(ReadAll(file.get(), header, sizeof(header), path));
  if (header[0] != kCsrMagic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (header[1] != kCsrVersion) {
    return Status::Corruption(StrFormat(
        "%s: unsupported version %llu", path.c_str(),
        static_cast<unsigned long long>(header[1])));
  }
  if (header[2] == 0) {
    return Status::Corruption(path + ": empty offsets array");
  }
  // A corrupt size field must surface as Corruption, not as an uncaught
  // std::length_error (or OOM) from resizing to a garbage element count:
  // bound both counts by what the file could actually hold.
  const auto payload = static_cast<uint64_t>(file_size);
  if (header[2] > payload / sizeof(EdgeIndex) ||
      header[3] > payload / sizeof(VertexId)) {
    return Status::Corruption(path + ": size fields exceed file size");
  }
  std::vector<EdgeIndex> offsets(header[2]);
  std::vector<VertexId> neighbors(header[3]);
  KCORE_RETURN_IF_ERROR(ReadAll(file.get(), offsets.data(),
                                offsets.size() * sizeof(EdgeIndex), path));
  KCORE_RETURN_IF_ERROR(ReadAll(file.get(), neighbors.data(),
                                neighbors.size() * sizeof(VertexId), path));
  uint64_t stored = 0;
  KCORE_RETURN_IF_ERROR(ReadAll(file.get(), &stored, sizeof(stored), path));
  uint64_t checksum = 0xcbf29ce484222325ULL;
  checksum =
      Fnv1a(offsets.data(), offsets.size() * sizeof(EdgeIndex), checksum);
  checksum =
      Fnv1a(neighbors.data(), neighbors.size() * sizeof(VertexId), checksum);
  if (stored != checksum) {
    return Status::Corruption(path + ": checksum mismatch");
  }
  if (offsets.front() != 0 || offsets.back() != neighbors.size()) {
    return Status::Corruption(path + ": inconsistent offsets");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i - 1] > offsets[i]) {
      return Status::Corruption(path + ": offsets not monotone");
    }
  }
  const auto num_vertices = static_cast<VertexId>(offsets.size() - 1);
  for (VertexId u : neighbors) {
    if (u >= num_vertices) {
      return Status::Corruption(path + ": neighbor ID out of range");
    }
  }
  return CsrGraph(std::move(offsets), std::move(neighbors));
}

}  // namespace kcore
