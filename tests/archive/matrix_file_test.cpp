/// The single-matrix file (`archive::write_matrix_file` /
/// `read_matrix_file`) that `obscorr capture --out` writes and the
/// `--matrix` commands read: round trips through a file, and
/// hostile-input hardening — bad magic, every truncation, corrupted
/// headers, and counts engineered to trigger huge allocations must all
/// fail with std::invalid_argument before any buffer larger than the file
/// is allocated.

#include "archive/matrix_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/matrix_view.hpp"

namespace obscorr::archive {
namespace {

using gbl::DcsrMatrix;
using gbl::Index;
using gbl::Tuple;
using gbl::Value;

/// A file of this test's own: ctest runs each test as a process of its
/// own, in parallel with the others, so a shared name would collide.
std::string own_path() {
  return ::testing::TempDir() + "/matrix_file_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".gbl";
}

DcsrMatrix sample_matrix() {
  std::vector<Tuple> tuples = {
      {5, 1, 2.0}, {5, 9, 1.0}, {17, 0, 4.5}, {4000000000u, 4000000001u, 8.0}};
  return DcsrMatrix::from_tuples(std::move(tuples));
}

std::string serialized(const DcsrMatrix& m) {
  std::string bytes;
  gbl::append_matrix_v2(bytes, m);
  return bytes;
}

/// Write `bytes` to this test's file and read it back as an owning matrix.
DcsrMatrix parse(const std::string& bytes) {
  const std::string path = own_path();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return read_matrix_file(path).materialize();
}

/// Write `m` with the file writer and read it back.
DcsrMatrix round_trip(const DcsrMatrix& m) {
  const std::string path = own_path();
  write_matrix_file(path, m);
  const DcsrMatrix back = read_matrix_file(path).materialize();
  std::remove(path.c_str());
  return back;
}

void patch_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
  ASSERT_LE(offset + 8, bytes.size());
  std::memcpy(bytes.data() + offset, &value, 8);
}

/// Offset of the u64 row offsets: the header, then the u32 row ids
/// padded to 8 bytes.
std::size_t row_ptr_offset(const DcsrMatrix& m) {
  return (24 + m.nonempty_rows() * sizeof(Index) + 7) / 8 * 8;
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
  // nnz far beyond anything the file could hold.
  patch_u64(bytes, 16, 1ULL << 41);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
  // nnz beyond the bytes actually present: the view's size bound must
  // reject it without a multi-GB allocation.
  patch_u64(bytes, 16, 1ULL << 33);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
  // rows > nnz is structurally impossible in DCSR.
  bytes = serialized(sample_matrix());
  patch_u64(bytes, 8, 100);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
}

TEST(MatrixIoTest, InconsistentRowOffsetsRejected) {
  const DcsrMatrix m = sample_matrix();
  const std::size_t row_ptr_at = row_ptr_offset(m);
  std::string bytes = serialized(m);
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
  // must throw before the column scan indexes past the payload.
  patch_u64(bytes, row_ptr_at + 8, 1'000'000);
  EXPECT_THROW(parse(bytes), std::invalid_argument);
}

TEST(MatrixIoTest, UnsortedColumnsRejectedByRebuild) {
  const DcsrMatrix m = sample_matrix();
  std::string bytes = serialized(m);
  // Swap the two column ids of row 5 so the row is descending; the
  // view's validation must refuse it before anything is rebuilt.
  const std::size_t col_at = row_ptr_offset(m) + (m.nonempty_rows() + 1) * sizeof(std::uint64_t);
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
  EXPECT_EQ(round_trip(m), m);
}

TEST(MatrixIoTest, RoundTripEmpty) { EXPECT_EQ(round_trip(DcsrMatrix{}), DcsrMatrix{}); }

TEST(MatrixIoTest, RoundTripRandomized) {
  Rng rng(13);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 20000; ++i) {
    tuples.push_back({rng.next_u32(), rng.next_u32(),
                      static_cast<Value>(1 + rng.uniform_u64(100))});
  }
  const DcsrMatrix m = DcsrMatrix::from_tuples(std::move(tuples));
  EXPECT_EQ(round_trip(m), m);
}

TEST(MatrixIoTest, RejectsBadMagic) {
  EXPECT_THROW(parse("NOTAMATRIXFILE.................."), std::invalid_argument);
}

TEST(MatrixIoTest, RejectsTruncation) {
  const std::string full = serialized(DcsrMatrix::from_tuples({{1, 1, 2.5}, {2, 2, 3.5}}));
  for (std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{10}}) {
    EXPECT_THROW(parse(full.substr(0, cut)), std::invalid_argument) << "cut at " << cut;
  }
}

TEST(MatrixIoTest, FileHelpers) {
  const DcsrMatrix m = DcsrMatrix::from_tuples({{3, 4, 5.0}});
  const std::string path = own_path();
  write_matrix_file(path, m);
  // The file is exactly an archive entry's payload.
  std::ifstream is(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, serialized(m));
  EXPECT_EQ(read_matrix_file(path).materialize(), m);
  EXPECT_THROW(read_matrix_file(path + ".does-not-exist"), std::invalid_argument);
  EXPECT_THROW(write_matrix_file(::testing::TempDir() + "/no/such/dir/m.gbl", m),
               std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obscorr::archive
