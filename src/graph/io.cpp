#include "graph/io.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <sstream>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

constexpr std::array<char, 8> kMagic = {'C', 'S', 'A', 'W',
                                        'C', 'S', 'R', '1'};

template <typename T>
void write_vector(std::ofstream& os, std::span<const T> data) {
  const std::uint64_t count = data.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  os.write(reinterpret_cast<const char*>(data.data()),
           static_cast<std::streamsize>(count * sizeof(T)));
}

/// Reads one count-prefixed array. The declared count is checked against
/// the `remaining` bytes of the file before anything is allocated, and the
/// payload must be read in full: a truncated or corrupt header raises
/// CheckError instead of a short read or an oversized allocation.
template <typename T>
std::vector<T> read_vector(std::ifstream& is, std::uint64_t& remaining) {
  std::uint64_t count = 0;
  CSAW_CHECK_MSG(remaining >= sizeof(count), "truncated CSR file");
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  CSAW_CHECK_MSG(is.good(), "truncated CSR file");
  remaining -= sizeof(count);
  CSAW_CHECK_MSG(count <= remaining / sizeof(T),
                 "CSR array declares " << count << " elements but only "
                                       << remaining << " bytes remain");
  const std::uint64_t bytes = count * sizeof(T);
  std::vector<T> data(count);
  is.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(bytes));
  CSAW_CHECK_MSG(static_cast<std::uint64_t>(is.gcount()) == bytes,
                 "truncated CSR file");
  remaining -= bytes;
  return data;
}

}  // namespace

CsrGraph load_edge_list(const std::string& path, bool weighted,
                        bool symmetrize) {
  std::ifstream is(path);
  CSAW_CHECK_MSG(is.is_open(), "cannot open " << path);

  std::vector<Edge> edges;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    Edge e;
    if (!(ls >> e.src >> e.dst)) continue;
    if (weighted) {
      if (!(ls >> e.weight)) e.weight = 1.0f;
    }
    edges.push_back(e);
  }
  BuildOptions options;
  options.keep_weights = weighted;
  options.symmetrize = symmetrize;
  return build_csr(std::move(edges), 0, options);
}

void save_edge_list(const CsrGraph& graph, const std::string& path) {
  std::ofstream os(path);
  CSAW_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  os << "# csaw edge list: " << graph.num_vertices() << " vertices, "
     << graph.num_edges() << " directed edges\n";
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto adj = graph.neighbors(v);
    for (std::size_t k = 0; k < adj.size(); ++k) {
      os << v << ' ' << adj[k] << ' '
         << graph.edge_weight(v, static_cast<EdgeIndex>(k)) << '\n';
    }
  }
}

void save_binary(const CsrGraph& graph, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  CSAW_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  os.write(kMagic.data(), kMagic.size());
  write_vector(os, graph.row_ptr());
  write_vector(os, graph.col_idx());
  write_vector(os, graph.weights());
  CSAW_CHECK_MSG(os.good(), "write failed for " << path);
}

CsrGraph load_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  CSAW_CHECK_MSG(is.is_open(), "cannot open " << path);
  const std::streamoff size = is.tellg();
  CSAW_CHECK_MSG(size >= 0, "cannot size " << path);
  std::uint64_t remaining = static_cast<std::uint64_t>(size);
  is.seekg(0);
  std::array<char, 8> magic{};
  is.read(magic.data(), magic.size());
  CSAW_CHECK_MSG(is.good() && magic == kMagic,
                 path << " is not a csaw binary CSR file");
  remaining -= magic.size();
  auto row_ptr = read_vector<EdgeIndex>(is, remaining);
  auto col_idx = read_vector<VertexId>(is, remaining);
  auto weights = read_vector<float>(is, remaining);
  return CsrGraph(std::move(row_ptr), std::move(col_idx), std::move(weights));
}

}  // namespace csaw
