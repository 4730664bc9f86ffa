/// MatrixView: the archive's zero-copy read path. Round-trips through
/// format v2 must be bit-identical to the owning DcsrMatrix, every
/// structural violation of the payload must throw at construction, and
/// the reductions over a view must equal the owning kernels.

#include "gbl/matrix_view.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "gbl/dcsr.hpp"

namespace obscorr::gbl {
namespace {

DcsrMatrix sample_matrix() {
  std::vector<Tuple> tuples = {{2, 7, 1.0},         {2, 8, 2.5},  {2, 11, 0.5},
                               {9, 1, 3.0},         {9, 2, 1.0},  {1000, 4, 7.0},
                               {4000000000u, 0, 1.0}};
  return DcsrMatrix::from_tuples(std::move(tuples));
}

/// v2 bytes in an 8-aligned buffer (std::string data need not be).
struct AlignedPayload {
  explicit AlignedPayload(const DcsrMatrix& m) {
    std::string bytes;
    append_matrix_v2(bytes, m);
    words.resize((bytes.size() + 7) / 8);
    std::memcpy(words.data(), bytes.data(), bytes.size());
    size = bytes.size();
  }
  std::span<const std::byte> span() const {
    return {reinterpret_cast<const std::byte*>(words.data()), size};
  }
  std::byte* data() { return reinterpret_cast<std::byte*>(words.data()); }
  std::vector<std::uint64_t> words;
  std::size_t size = 0;
};

TEST(MatrixViewTest, RoundTripIsBitIdentical) {
  const DcsrMatrix m = sample_matrix();
  const AlignedPayload payload(m);
  const MatrixView v = MatrixView::from_bytes(payload.span());
  EXPECT_EQ(v.nnz(), m.nnz());
  EXPECT_EQ(v.nonempty_rows(), m.nonempty_rows());
  EXPECT_TRUE(v.materialize() == m);
  EXPECT_EQ(v.at(2, 8), 2.5);
  EXPECT_EQ(v.at(2, 9), 0.0);
  EXPECT_EQ(v.at(3, 8), 0.0);
}

TEST(MatrixViewTest, EmptyMatrixRoundTrips) {
  const AlignedPayload payload((DcsrMatrix()));
  const MatrixView v = MatrixView::from_bytes(payload.span());
  EXPECT_EQ(v.nnz(), 0u);
  EXPECT_EQ(v.reduce_sum(), 0.0);
  EXPECT_TRUE(v.materialize() == DcsrMatrix());
}

TEST(MatrixViewTest, ReductionsMatchOwningKernels) {
  const DcsrMatrix m = sample_matrix();
  const AlignedPayload payload(m);
  const MatrixView v = MatrixView::from_bytes(payload.span());
  EXPECT_EQ(v.reduce_sum(), m.reduce_sum());
  EXPECT_EQ(v.reduce_max(), m.reduce_max());
  EXPECT_TRUE(v.reduce_rows() == m.reduce_rows());
  EXPECT_TRUE(v.reduce_rows_pattern() == m.reduce_rows_pattern());
  EXPECT_TRUE(v.reduce_cols() == m.reduce_cols());
  EXPECT_TRUE(v.reduce_cols_pattern() == m.reduce_cols_pattern());
  ThreadPool pool(3);
  EXPECT_TRUE(v.reduce_rows(pool) == m.reduce_rows());
  // over() shares the same kernels without serialization.
  const MatrixView borrowed = MatrixView::over(m);
  EXPECT_TRUE(borrowed.reduce_rows() == m.reduce_rows());
  EXPECT_EQ(borrowed.reduce_sum(), m.reduce_sum());
}

TEST(MatrixViewTest, MisalignedPayloadRejected) {
  const DcsrMatrix m = sample_matrix();
  std::string bytes;
  append_matrix_v2(bytes, m);
  std::vector<std::uint64_t> words((bytes.size() + 8) / 8 + 1);
  auto* base = reinterpret_cast<std::byte*>(words.data());
  std::memcpy(base + 4, bytes.data(), bytes.size());
  EXPECT_THROW(MatrixView::from_bytes({base + 4, bytes.size()}), std::invalid_argument);
}

TEST(MatrixViewTest, BadMagicAndTruncationRejected) {
  const DcsrMatrix m = sample_matrix();
  AlignedPayload payload(m);
  EXPECT_THROW(MatrixView::from_bytes(payload.span().first(0)), std::invalid_argument);
  EXPECT_THROW(MatrixView::from_bytes(payload.span().first(16)), std::invalid_argument);
  for (std::size_t len = 24; len < payload.size; len += 8) {
    EXPECT_THROW(MatrixView::from_bytes(payload.span().first(len)), std::invalid_argument)
        << "truncation to " << len << " accepted";
  }
  payload.data()[7] = std::byte{'1'};  // v1 magic is not v2
  EXPECT_THROW(MatrixView::from_bytes(payload.span()), std::invalid_argument);
}

TEST(MatrixViewTest, TrailingBytesRejected) {
  const DcsrMatrix m = sample_matrix();
  std::string bytes;
  append_matrix_v2(bytes, m);
  bytes.append(8, '\0');
  std::vector<std::uint64_t> words((bytes.size() + 7) / 8);
  std::memcpy(words.data(), bytes.data(), bytes.size());
  EXPECT_THROW(MatrixView::from_bytes(
                   {reinterpret_cast<const std::byte*>(words.data()), bytes.size()}),
               std::invalid_argument);
}

TEST(MatrixViewTest, StructuralViolationsRejected) {
  const DcsrMatrix m = sample_matrix();
  const std::size_t rows = m.nonempty_rows();

  {  // hostile counts: rows > nnz
    AlignedPayload p(m);
    const std::uint64_t huge = m.nnz() + 1;
    std::memcpy(p.data() + 8, &huge, 8);
    EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
  }
  {  // hostile counts: nnz beyond the payload
    AlignedPayload p(m);
    const std::uint64_t huge = 1ULL << 40;
    std::memcpy(p.data() + 16, &huge, 8);
    EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
  }
  {  // row ids not strictly increasing
    AlignedPayload p(m);
    std::uint32_t first = 0;
    std::memcpy(&first, p.data() + 24, 4);
    const std::uint32_t dup = first;
    std::memcpy(p.data() + 24 + 4, &dup, 4);
    EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
  }
  const std::size_t row_ptr_at = (24 + rows * 4 + 7) / 8 * 8;
  {  // row offsets must start at 0
    AlignedPayload p(m);
    const std::uint64_t one = 1;
    std::memcpy(p.data() + row_ptr_at, &one, 8);
    EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
  }
  {  // row offsets must end at nnz
    AlignedPayload p(m);
    const std::uint64_t wrong = m.nnz() - 1;
    std::memcpy(p.data() + row_ptr_at + rows * 8, &wrong, 8);
    EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
  }
  {  // empty row (equal consecutive offsets)
    AlignedPayload p(m);
    std::uint64_t next = 0;
    std::memcpy(&next, p.data() + row_ptr_at + 8, 8);
    const std::uint64_t zero = 0;
    std::memcpy(p.data() + row_ptr_at + 8, &zero, 8);
    ASSERT_NE(next, zero);
    EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
  }
  {  // middle offset past nnz (front/back still valid): must throw
     // before the column loop reads past the mapped payload
    AlignedPayload p(m);
    const std::uint64_t big = 1'000'000;
    std::memcpy(p.data() + row_ptr_at + 8, &big, 8);
    EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
  }
  const std::size_t col_at = row_ptr_at + (rows + 1) * 8;
  {  // columns inside a row must be strictly increasing
    AlignedPayload p(m);
    std::uint32_t c0 = 0, c1 = 0;
    std::memcpy(&c0, p.data() + col_at, 4);
    std::memcpy(&c1, p.data() + col_at + 4, 4);
    std::memcpy(p.data() + col_at, &c1, 4);
    std::memcpy(p.data() + col_at + 4, &c0, 4);
    EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
  }
}

TEST(MatrixViewTest, RowOffsetPastNnzDoesNotReadPastPayload) {
  // Two rows with globally increasing columns, and value bit patterns
  // whose u32 halves continue that increasing sequence. Without the
  // offset <= nnz bound, the column-sortedness scan never finds a
  // violation inside the payload and walks straight past its end (an
  // out-of-mapping read ASan catches); it must throw instead.
  const DcsrMatrix m =
      DcsrMatrix::from_tuples({{0, 1, std::bit_cast<double>(0x0000000400000003ULL)},
                               {1, 2, std::bit_cast<double>(0x0000000600000005ULL)}});
  AlignedPayload p(m);
  const std::size_t row_ptr_at = 32;  // header(24) + two u32 row ids
  const std::uint64_t big = 1'000'000;
  std::memcpy(p.data() + row_ptr_at + 8, &big, 8);
  EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
}

TEST(MatrixViewTest, NonzeroSectionPaddingRejected) {
  // Three rows leave 4 padding bytes after the u32 row-id section.
  const DcsrMatrix m =
      DcsrMatrix::from_tuples({{1, 1, 1.0}, {2, 2, 2.0}, {3, 3, 3.0}});
  ASSERT_EQ((24 + m.nonempty_rows() * 4) % 8, 4u);
  AlignedPayload p(m);
  p.data()[24 + m.nonempty_rows() * 4] = std::byte{0xAB};
  EXPECT_THROW(MatrixView::from_bytes(p.span()), std::invalid_argument);
}

}  // namespace
}  // namespace obscorr::gbl
