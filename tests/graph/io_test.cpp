#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "csaw_io_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / name).string();
    cleanup_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const auto& p : cleanup_) std::filesystem::remove(p);
  }
  std::vector<std::string> cleanup_;
};

TEST_F(IoTest, BinaryRoundTrip) {
  const CsrGraph g = generate_rmat(256, 1024, 13, RmatParams{}, true);
  const auto path = temp_path("roundtrip.csr");
  save_binary(g, path);
  const CsrGraph back = load_binary(path);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_TRUE(std::equal(g.col_idx().begin(), g.col_idx().end(),
                         back.col_idx().begin()));
  EXPECT_TRUE(std::equal(g.weights().begin(), g.weights().end(),
                         back.weights().begin()));
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  const auto path = temp_path("garbage.csr");
  std::ofstream(path) << "this is not a csr file";
  EXPECT_THROW(load_binary(path), CheckError);
}

TEST_F(IoTest, BinaryRejectsEveryTruncation) {
  // A weighted file cut at any byte offset short of its full length must
  // fail typed — including cuts inside the final (weights) array, whose
  // missing tail must never load as zeros.
  const CsrGraph g =
      build_csr({{0, 1, 0.5f}, {1, 2, 1.5f}, {2, 3, 2.5f}}, 0,
                BuildOptions{.keep_weights = true});
  ASSERT_FALSE(g.weights().empty());
  const auto path = temp_path("full.csr");
  save_binary(g, path);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 8u);

  const auto cut_path = temp_path("cut.csr");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::ofstream(cut_path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(cut));
    EXPECT_THROW(load_binary(cut_path), CheckError) << "cut at byte " << cut;
  }
  // The uncut file still round-trips.
  EXPECT_EQ(load_binary(path).weights().size(), g.weights().size());
}

TEST_F(IoTest, BinaryRejectsOversizedCount) {
  // A header declaring more elements than the file holds is refused
  // before anything is allocated.
  const auto path = temp_path("oversized.csr");
  {
    std::ofstream os(path, std::ios::binary);
    os.write("CSAWCSR1", 8);
    const std::uint64_t count = std::numeric_limits<std::uint64_t>::max();
    os.write(reinterpret_cast<const char*>(&count), sizeof(count));
    const std::uint64_t payload[2] = {0, 0};
    os.write(reinterpret_cast<const char*>(payload), sizeof(payload));
  }
  EXPECT_THROW(load_binary(path), CheckError);
}

TEST_F(IoTest, BinaryRejectsOutOfRangeColumn) {
  // A well-formed file whose adjacency names a vertex past the end must
  // fail typed at load, not index out of bounds on a later visit.
  const auto path = temp_path("bad_column.csr");
  {
    std::ofstream os(path, std::ios::binary);
    os.write("CSAWCSR1", 8);
    const auto write = [&os](const auto& values) {
      const std::uint64_t count = values.size();
      os.write(reinterpret_cast<const char*>(&count), sizeof(count));
      os.write(reinterpret_cast<const char*>(values.data()),
               static_cast<std::streamsize>(count * sizeof(values[0])));
    };
    write(std::vector<EdgeIndex>{0, 1, 2});
    write(std::vector<VertexId>{1, 7});  // 2 vertices; 7 is out of range
    write(std::vector<float>{});
  }
  EXPECT_THROW(load_binary(path), CheckError);
}

TEST(CsrValidation, ConstructorRejectsOutOfRangeColumn) {
  EXPECT_THROW(CsrGraph({0, 1, 2}, {1, 2}, {}), CheckError);
  EXPECT_THROW(CsrGraph({0, 0, 2}, {0, 1000}, {}), CheckError);
  // The last vertex id and empty rows are fine.
  EXPECT_NO_THROW(CsrGraph({0, 1, 1, 3}, {2, 0, 2}, {}));
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(load_binary("/nonexistent/nope.csr"), CheckError);
  EXPECT_THROW(load_edge_list("/nonexistent/nope.txt"), CheckError);
}

TEST_F(IoTest, EdgeListRoundTrip) {
  const CsrGraph g = build_csr({{0, 1}, {1, 2}, {2, 3}});
  const auto path = temp_path("edges.txt");
  save_edge_list(g, path);
  // The saved list already contains both directions; load directed.
  const CsrGraph back = load_edge_list(path, false, /*symmetrize=*/false);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

TEST_F(IoTest, EdgeListSkipsCommentsAndParsesWeights) {
  const auto path = temp_path("snap.txt");
  std::ofstream(path) << "# SNAP-style comment\n"
                      << "% KONECT-style comment\n"
                      << "0 1 2.5\n"
                      << "1 2\n";
  const CsrGraph g = load_edge_list(path, /*weighted=*/true,
                                    /*symmetrize=*/false);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FLOAT_EQ(g.edge_weight(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(g.edge_weight(1, 0), 1.0f);  // missing weight defaults
}

}  // namespace
}  // namespace csaw
