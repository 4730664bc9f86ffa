/// The v1 matrix stream format: round trips (in memory and through the
/// file helpers), and hostile-input hardening — truncated streams,
/// corrupted headers, and counts engineered to trigger huge allocations
/// must all fail with std::invalid_argument before any oversized buffer
/// is allocated.

#include "gbl/matrix_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "gbl/dcsr.hpp"

namespace obscorr::gbl {
namespace {

DcsrMatrix sample_matrix() {
  std::vector<Tuple> tuples = {
      {5, 1, 2.0}, {5, 9, 1.0}, {17, 0, 4.5}, {4000000000u, 4000000001u, 8.0}};
  return DcsrMatrix::from_tuples(std::move(tuples));
}

std::string serialized(const DcsrMatrix& m) {
  std::ostringstream os(std::ios::binary);
  write_matrix(os, m);
  return os.str();
}

DcsrMatrix parse(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return read_matrix(is);
}

void patch_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
  ASSERT_LE(offset + 8, bytes.size());
  std::memcpy(bytes.data() + offset, &value, 8);
}

TEST(MatrixIoTest, RoundTrip) {
  const DcsrMatrix m = sample_matrix();
  EXPECT_TRUE(parse(serialized(m)) == m);
  EXPECT_TRUE(parse(serialized(DcsrMatrix{})) == DcsrMatrix{});
}

TEST(MatrixIoTest, BadMagicRejected) {
  std::string bytes = serialized(sample_matrix());
  bytes[0] = 'X';
  EXPECT_THROW(parse(bytes), std::invalid_argument);
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("OBSC"), std::invalid_argument);
}

TEST(MatrixIoTest, EveryTruncationRejected) {
  const std::string bytes = serialized(sample_matrix());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(parse(bytes.substr(0, len)), std::invalid_argument)
        << "truncation to " << len << " bytes accepted";
  }
  EXPECT_NO_THROW(parse(bytes));
}

TEST(MatrixIoTest, HostileCountsRejectedBeforeAllocation) {
  std::string bytes = serialized(sample_matrix());
  // nnz beyond the 2^40 plausibility cap.
  patch_u64(bytes, 16, 1ULL << 41);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
  // nnz under the cap but far beyond the bytes actually present: the
  // seekable-stream bound must reject it without a multi-GB allocation.
  patch_u64(bytes, 16, 1ULL << 33);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
  // rows > nnz is structurally impossible in DCSR.
  bytes = serialized(sample_matrix());
  patch_u64(bytes, 8, 100);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
}

TEST(MatrixIoTest, InconsistentRowOffsetsRejected) {
  const DcsrMatrix m = sample_matrix();
  std::string bytes = serialized(m);
  // row_ptr lives after magic(8) + rows(8) + nnz(8) + row_ids.
  const std::size_t row_ptr_at = 24 + m.nonempty_rows() * sizeof(Index);
  patch_u64(bytes, row_ptr_at, 1);  // front != 0
  EXPECT_THROW(parse(bytes), std::invalid_argument);

  bytes = serialized(m);
  patch_u64(bytes, row_ptr_at + m.nonempty_rows() * 8, m.nnz() + 1);  // back != nnz
  EXPECT_THROW(parse(bytes), std::invalid_argument);

  bytes = serialized(m);
  patch_u64(bytes, row_ptr_at + 8, m.nnz());  // descending interior offset
  EXPECT_THROW(parse(bytes), std::invalid_argument);

  bytes = serialized(m);
  // Interior offset past nnz while front()==0 and back()==nnz still hold:
  // must throw before the rebuild loop indexes col/val out of bounds.
  patch_u64(bytes, row_ptr_at + 8, 1'000'000);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
}

TEST(MatrixIoTest, UnsortedColumnsRejectedByRebuild) {
  const DcsrMatrix m = sample_matrix();
  std::string bytes = serialized(m);
  // Swap the two column ids of row 5 so the row is descending; the
  // validated tuple rebuild must refuse it.
  const std::size_t col_at = 24 + m.nonempty_rows() * sizeof(Index) +
                             (m.nonempty_rows() + 1) * sizeof(std::uint64_t);
  std::uint32_t c0 = 0, c1 = 0;
  std::memcpy(&c0, bytes.data() + col_at, 4);
  std::memcpy(&c1, bytes.data() + col_at + 4, 4);
  ASSERT_LT(c0, c1);
  std::memcpy(bytes.data() + col_at, &c1, 4);
  std::memcpy(bytes.data() + col_at + 4, &c0, 4);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
}

TEST(MatrixIoTest, RoundTripSmall) {
  const DcsrMatrix m = DcsrMatrix::from_tuples({{1, 1, 2.5}, {9, 4000000000u, 7.0}});
  std::stringstream ss;
  write_matrix(ss, m);
  EXPECT_EQ(read_matrix(ss), m);
}

TEST(MatrixIoTest, RoundTripEmpty) {
  std::stringstream ss;
  write_matrix(ss, DcsrMatrix{});
  EXPECT_EQ(read_matrix(ss), DcsrMatrix{});
}

TEST(MatrixIoTest, RoundTripRandomized) {
  Rng rng(13);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 20000; ++i) {
    tuples.push_back({rng.next_u32(), rng.next_u32(),
                      static_cast<Value>(1 + rng.uniform_u64(100))});
  }
  const DcsrMatrix m = DcsrMatrix::from_tuples(std::move(tuples));
  std::stringstream ss;
  write_matrix(ss, m);
  EXPECT_EQ(read_matrix(ss), m);
}

TEST(MatrixIoTest, RejectsBadMagic) {
  std::stringstream ss("NOTAMATRIXFILE..................");
  EXPECT_THROW(read_matrix(ss), std::invalid_argument);
}

TEST(MatrixIoTest, RejectsTruncation) {
  const DcsrMatrix m = DcsrMatrix::from_tuples({{1, 1, 2.5}, {2, 2, 3.5}});
  std::stringstream ss;
  write_matrix(ss, m);
  const std::string full = ss.str();
  for (std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{10}}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(read_matrix(truncated), std::invalid_argument) << "cut at " << cut;
  }
}

TEST(MatrixIoTest, FileHelpers) {
  const DcsrMatrix m = DcsrMatrix::from_tuples({{3, 4, 5.0}});
  const std::string path = ::testing::TempDir() + "/obscorr_matrix_io_test.gbl";
  save_matrix(path, m);
  EXPECT_EQ(load_matrix(path), m);
  EXPECT_THROW(load_matrix(path + ".does-not-exist"), std::invalid_argument);
}

}  // namespace
}  // namespace obscorr::gbl
