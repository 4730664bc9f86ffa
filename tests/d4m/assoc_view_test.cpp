/// AssocView: the validated view the honeyfarm database reads archived
/// months through. It shares `read_binary`'s parser and checks, so it must
/// reject what `read_binary` rejects, with the same messages, and read
/// exactly the array `read_binary` returns when it accepts: for every
/// single-byte corruption of a real month, and over unaligned buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "archive/study_archive.hpp"
#include "assoc_oracle.hpp"
#include "d4m/gbl_bridge.hpp"

#ifndef OBSCORR_TEST_DATA_DIR
#error "OBSCORR_TEST_DATA_DIR must point at tests/data"
#endif

namespace obscorr::d4m {
namespace {

std::span<const std::byte> as_span(const std::string& bytes) {
  return std::as_bytes(std::span<const char>(bytes.data(), bytes.size()));
}

std::string serialized(const AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

/// The std::invalid_argument message `f` throws; empty when it returns.
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

std::string view_error(std::span<const std::byte> bytes) {
  return error_of([&] { (void)AssocView::from_bytes(bytes); });
}

std::string read_binary_error(std::span<const std::byte> bytes) {
  return error_of([&] { (void)AssocArray::read_binary(bytes); });
}

std::string view_error(const std::string& bytes) { return view_error(as_span(bytes)); }

std::string read_binary_error(const std::string& bytes) {
  return read_binary_error(as_span(bytes));
}

/// The array AssocBinaryTest's malformed-stream cases start from.
const AssocArray kSmall =
    oracle::build({{"alpha", "c1", 1.0}, {"beta", "c1", 2.0}, {"beta", "c2", 3.0}});

/// The golden sweep's comparison, run once per accepted flip, so it
/// copies no key: the view has `a`'s key sets and entry count, and every
/// row's entries in column order, values bit for bit.
::testing::AssertionResult same_array(const AssocView& v, const AssocArray& a) {
  if (!std::ranges::equal(v.row_keys(), a.row_keys()) ||
      !std::ranges::equal(v.col_keys(), a.col_keys()) || v.nnz() != a.nnz()) {
    return ::testing::AssertionFailure() << "key sets or entry counts differ";
  }
  const auto row_ptr = a.row_ptr();
  for (std::size_t r = 0; r < a.row_keys().size(); ++r) {
    const auto entries = v.row(r);
    const auto begin = static_cast<std::size_t>(row_ptr[r]);
    if (entries.size() != row_ptr[r + 1] - begin) {
      return ::testing::AssertionFailure() << "row " << a.row_keys()[r] << ": entry counts differ";
    }
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (entries[k].first != a.col_keys()[a.col_idx()[begin + k]] ||
          std::bit_cast<std::uint64_t>(entries[k].second) !=
              std::bit_cast<std::uint64_t>(a.values()[begin + k])) {
        return ::testing::AssertionFailure() << "row " << a.row_keys()[r] << ": entry " << k
                                             << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The view reads exactly what the owning array holds: the same triples,
/// values bit for bit (canonical arrays with equal triples are equal).
void expect_view_matches(const AssocView& v, const AssocArray& a) {
  EXPECT_EQ(v.nnz(), a.nnz());
  EXPECT_EQ(oracle::triples(v), oracle::triples(a));
}

TEST(AssocViewTest, ViewsWhatReadBinaryReads) {
  const std::string bytes = serialized(kSmall);
  const AssocView v = AssocView::from_bytes(as_span(bytes));
  expect_view_matches(v, kSmall);
  EXPECT_TRUE(std::ranges::equal(v.row_keys(), std::vector<std::string_view>{"alpha", "beta"}));
  expect_view_matches(AssocView::from_bytes(as_span(serialized(AssocArray()))), AssocArray());
  expect_view_matches(AssocView::from_ip_bytes(as_span(serialized(AssocArray()))), AssocArray());
  expect_view_matches(AssocView(), AssocArray());
  EXPECT_TRUE(AssocView().row_keys().empty());
}

TEST(AssocViewTest, IpKeyedViewRanksCanonicalKeysAndRejectsTheRest) {
  const AssocArray a = oracle::build({{"1.10.0.0", "contacts", 1.0},
                                      {"1.2.0.0", "contacts", 2.0},
                                      {"255.0.0.1", "intent|scan", 1.0}});
  const std::string bytes = serialized(a);
  const AssocView v = AssocView::from_ip_bytes(as_span(bytes));
  expect_view_matches(v, a);
  ASSERT_EQ(v.row_ranks().size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(v.row_ranks()[r], *parse_rank(v.row_keys()[r])) << v.row_keys()[r];
  }
  // Keys that from_bytes accepts, in string order, but that no address
  // prints: each is refused by the address-keyed view alone.
  for (const char* key : {"1.2.3.04", "1.2.3", "alpha", ""}) {
    const std::string other = serialized(oracle::build({{key, "contacts", 1.0}}));
    EXPECT_EQ(view_error(other), "") << key;
    EXPECT_EQ(error_of([&] { (void)AssocView::from_ip_bytes(as_span(other)); }),
              "read_binary: row key is not a canonical dotted quad")
        << key;
  }
}

TEST(AssocViewTest, OwnerKeepsTheBytesAlive) {
  auto bytes = std::make_shared<std::string>(serialized(kSmall));
  const AssocView v = AssocView::from_bytes(as_span(*bytes), bytes);
  bytes.reset();  // the view holds the only reference now
  expect_view_matches(v, kSmall);
}

TEST(AssocViewTest, MalformedStreamsGiveReadBinaryMessages) {
  // Every input of AssocBinaryTest.MalformedStreamsRejected, with the
  // message read_binary gave it before it went through the view.
  const std::string good = serialized(kSmall);
  EXPECT_EQ(view_error(""), "read_binary: truncated stream");
  EXPECT_EQ(view_error("OBSD4MA"), "read_binary: truncated stream");
  {
    std::string bad = good;
    bad[7] = 'X';
    EXPECT_EQ(view_error(bad), "read_binary: bad magic");
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::string cut = good.substr(0, len);
    const std::string message = view_error(cut);
    // A cut inside a count reads as a short stream; a whole count
    // followed by too few bytes reads as an implausible count.
    EXPECT_TRUE(message == "read_binary: truncated stream" ||
                message == "read_binary: implausible row key count" ||
                message == "read_binary: implausible col key count")
        << "truncation to " << len << ": " << message;
    EXPECT_EQ(message, read_binary_error(cut)) << "truncation to " << len;
  }
  {
    std::string bad = good;
    const std::uint64_t huge = 1ULL << 60;
    std::memcpy(bad.data() + 8, &huge, 8);
    EXPECT_EQ(view_error(bad), "read_binary: implausible row key count");
  }
}

TEST(AssocViewTest, NonCanonicalStreamsGiveReadBinaryMessages) {
  // Every input of AssocBinaryTest.NonCanonicalStreamsRejected.
  const std::string good = serialized(kSmall);
  const std::size_t alpha_at = 8 + 8 + 4;
  {
    std::string bad = good;
    bad[alpha_at] = 'z';
    EXPECT_EQ(view_error(bad), "read_binary: row keys must be strictly increasing");
    EXPECT_EQ(read_binary_error(bad), view_error(bad));
  }
  {
    std::string bad = good;
    bad.replace(alpha_at, 5, "beta\0", 5);
    EXPECT_EQ(view_error(bad), "read_binary: row keys must be strictly increasing");
    EXPECT_EQ(read_binary_error(bad), view_error(bad));
  }
  {
    // An interior row offset past nnz, with the first and last offsets
    // intact: the bound that keeps the column scan inside col_idx.
    std::string bad = serialized(oracle::build(
        {{"alpha", "c1", 1.0}, {"beta", "c2", 2.0}, {"beta", "c3", 3.0}}));
    const std::size_t row_keys = 8 + (4 + 5) + (4 + 4);
    const std::size_t col_keys = 8 + (4 + 2) + (4 + 2) + (4 + 2);
    const std::size_t row_ptr_at = 8 + row_keys + col_keys + 8;
    const std::uint64_t big = 1'000'000;
    std::memcpy(bad.data() + row_ptr_at + 8, &big, 8);
    EXPECT_EQ(view_error(bad), "read_binary: row offset exceeds the entry count");
    EXPECT_EQ(read_binary_error(bad), view_error(bad));
  }
}

TEST(AssocViewTest, UnalignedBuffersReadTheSameValues) {
  // Keys of odd lengths put every CSR array at an odd offset already;
  // shifting the whole buffer by 1 and 3 moves the payload start too.
  const AssocArray a = oracle::build({{"10.0.0.1", "contacts", 12.5},
                                      {"10.0.0.1", "intent|scan", 1.0},
                                      {"10.0.0.22", "contacts", -0.0},
                                      {"7", "classification|benign", 1e300}});
  const std::string bytes = serialized(a);
  for (const std::size_t shift : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    std::vector<std::uint64_t> storage(bytes.size() / 8 + 2);  // 8-aligned base
    auto* base = reinterpret_cast<char*>(storage.data()) + shift;
    std::memcpy(base, bytes.data(), bytes.size());
    const auto span = std::as_bytes(std::span<const char>(base, bytes.size()));
    SCOPED_TRACE("shift " + std::to_string(shift));
    expect_view_matches(AssocView::from_bytes(span), a);
  }
}

/// Month 2 of the golden archive (the smallest), serialized.
std::string golden_month() {
  const archive::StudyReader reader(OBSCORR_TEST_DATA_DIR "/golden_study");
  return serialized(reader.month(2).sources);
}

/// Whether every row key of `a` is a canonical dotted quad.
bool canonical_rows(const AssocArray& a) {
  return std::ranges::all_of(a.row_keys(),
                             [](const std::string& key) { return parse_rank(key).has_value(); });
}

TEST(AssocViewTest, GoldenMonthSurvivesEverySingleByteFlip) {
  // Both views of each flipped month: the plain view accepts exactly what
  // read_binary accepts and reads the same array; the address-keyed view
  // the database reads also refuses a non-canonical row key, and reads
  // the same array with the keys' ranks whenever it accepts.
  const std::string good = golden_month();
  ASSERT_GT(good.size(), 1000u);
  ASSERT_TRUE(
      same_array(AssocView::from_bytes(as_span(good)), AssocArray::read_binary(as_span(good))));
  ASSERT_TRUE(same_array(AssocView::from_ip_bytes(as_span(good)),
                         AssocArray::read_binary(as_span(good))));
  std::size_t accepted = 0;
  std::size_t refused_as_keys = 0;
  std::string bad = good;
  for (std::size_t i = 0; i < good.size(); ++i) {
    bad[i] = static_cast<char>(good[i] ^ 0x5A);
    std::optional<AssocView> by_rank;
    const std::string ip_error =
        error_of([&] { by_rank = AssocView::from_ip_bytes(as_span(bad)); });
    try {
      const AssocView v = AssocView::from_bytes(as_span(bad));
      const AssocArray read = AssocArray::read_binary(as_span(bad));
      ASSERT_TRUE(same_array(v, read)) << "flip at " << i;
      ++accepted;
      if (by_rank) {
        ASSERT_TRUE(same_array(*by_rank, read)) << "flip at " << i;
        ASSERT_TRUE(canonical_rows(read)) << "flip at " << i;
        for (std::size_t r = 0; r < read.row_keys().size(); ++r) {
          ASSERT_EQ(by_rank->row_ranks()[r], parse_rank(read.row_keys()[r])) << "flip at " << i;
        }
      } else {
        ASSERT_EQ(ip_error, "read_binary: row key is not a canonical dotted quad")
            << "flip at " << i;
        ASSERT_FALSE(canonical_rows(read)) << "flip at " << i;
        ++refused_as_keys;
      }
    } catch (const std::invalid_argument& e) {
      ASSERT_TRUE(std::string_view(e.what()).starts_with("read_binary: ")) << e.what();
      ASSERT_TRUE(ip_error.starts_with("read_binary: ")) << "flip at " << i;
    }
    bad[i] = good[i];
  }
  // Flipped values stay valid arrays; flipped keys and offsets do not,
  // and some flipped keys keep their order but stop being addresses.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, good.size());
  EXPECT_GT(refused_as_keys, 0u);
}

TEST(AssocViewTest, GoldenMonthRejectsEveryTruncation) {
  const std::string good = golden_month();
  for (std::size_t len = 0; len < good.size(); ++len) {
    const auto cut = as_span(good).first(len);
    const std::string message = view_error(cut);
    ASSERT_TRUE(message.starts_with("read_binary: ")) << "truncation to " << len << ": "
                                                      << (message.empty() ? "accepted" : message);
  }
}

}  // namespace
}  // namespace obscorr::d4m
