/// The reference algebra of tests/d4m/assoc_oracle.hpp on edge-shaped
/// operands: empty arrays, an array with itself, disjoint rows or
/// columns, stored zeros with NaN and infinite values, keys that are
/// prefixes of each other, and empty-string keys. Every result is
/// written out by hand and compared as triples, values bit for bit.
/// Random arrays, encoded, read back and viewed, list exactly their
/// triples. `from_csr` must reject every non-canonical input
/// `read_binary` rejects.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "assoc_oracle.hpp"
#include "d4m/gbl_bridge.hpp"

namespace obscorr::d4m {
namespace {

using oracle::build;
using oracle::ewise_add;
using oracle::ewise_max;
using oracle::ewise_mult;
using oracle::Triple;
using oracle::triples;
using Triples = std::vector<Triple>;

std::string bytes(const AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

std::span<const std::byte> as_span(const std::string& b) {
  return std::as_bytes(std::span<const char>(b.data(), b.size()));
}

AssocArray parse(const std::string& b) { return AssocArray::read_binary(as_span(b)); }

const AssocArray kSample = build({{"1.2.3.4", "classification|malicious", 1.0},
                                  {"1.2.3.4", "contacts", 17.0},
                                  {"1.2.3.4", "intent|scan", 1.0},
                                  {"5.6.7.8", "classification|benign", 1.0},
                                  {"5.6.7.8", "contacts", 2.0}});

TEST(AssocKernelTest, EmptyOperands) {
  const AssocArray empty;
  for (const auto op : {&ewise_add, &ewise_mult, &ewise_max}) {
    EXPECT_TRUE(op(empty, empty).empty());
  }
  EXPECT_EQ(bytes(ewise_add(kSample, empty)), bytes(kSample));
  EXPECT_EQ(bytes(ewise_add(empty, kSample)), bytes(kSample));
  EXPECT_EQ(bytes(ewise_max(kSample, empty)), bytes(kSample));
  EXPECT_EQ(bytes(ewise_max(empty, kSample)), bytes(kSample));
  EXPECT_TRUE(ewise_mult(kSample, empty).empty());
  EXPECT_TRUE(ewise_mult(empty, kSample).empty());
  EXPECT_TRUE(oracle::row_sum(empty).empty());
  EXPECT_TRUE(oracle::logical(empty).empty());
  EXPECT_TRUE(oracle::select_cols_prefix(empty, "").empty());
}

TEST(AssocKernelTest, ArrayWithItself) {
  EXPECT_EQ(triples(ewise_add(kSample, kSample)),
            (Triples{{"1.2.3.4", "classification|malicious", 2.0},
                     {"1.2.3.4", "contacts", 34.0},
                     {"1.2.3.4", "intent|scan", 2.0},
                     {"5.6.7.8", "classification|benign", 2.0},
                     {"5.6.7.8", "contacts", 4.0}}));
  EXPECT_EQ(triples(ewise_mult(kSample, kSample)),
            (Triples{{"1.2.3.4", "classification|malicious", 1.0},
                     {"1.2.3.4", "contacts", 289.0},
                     {"1.2.3.4", "intent|scan", 1.0},
                     {"5.6.7.8", "classification|benign", 1.0},
                     {"5.6.7.8", "contacts", 4.0}}));
  EXPECT_EQ(triples(ewise_max(kSample, kSample)), triples(kSample));
  EXPECT_EQ(triples(oracle::row_sum(kSample)),
            (Triples{{"1.2.3.4", "sum", 19.0}, {"5.6.7.8", "sum", 3.0}}));
}

TEST(AssocKernelTest, DisjointRows) {
  const AssocArray other = build({{"9.9.9.9", "contacts", 4.0},
                                  {"0.0.0.1", "classification|benign", 1.0},
                                  {"9.9.9.9", "protocol|tcp", 1.0}});
  // No cell is shared: add and max keep every cell, mult none.
  const Triples every{{"0.0.0.1", "classification|benign", 1.0},
                      {"1.2.3.4", "classification|malicious", 1.0},
                      {"1.2.3.4", "contacts", 17.0},
                      {"1.2.3.4", "intent|scan", 1.0},
                      {"5.6.7.8", "classification|benign", 1.0},
                      {"5.6.7.8", "contacts", 2.0},
                      {"9.9.9.9", "contacts", 4.0},
                      {"9.9.9.9", "protocol|tcp", 1.0}};
  EXPECT_EQ(triples(ewise_add(kSample, other)), every);
  EXPECT_EQ(triples(ewise_add(other, kSample)), every);
  EXPECT_EQ(triples(ewise_max(kSample, other)), every);
  EXPECT_TRUE(ewise_mult(kSample, other).empty());
  EXPECT_EQ(ewise_add(kSample, other).row_keys().size(), 4u);
  EXPECT_EQ(ewise_add(kSample, other).col_keys().size(), 5u);
}

TEST(AssocKernelTest, SharedRowsDisjointColumns) {
  const AssocArray other = build({{"1.2.3.4", "protocol|udp", 1.0},
                                  {"5.6.7.8", "intent|worm", 1.0},
                                  {"5.6.7.8", "protocol|tcp", 3.0}});
  const AssocArray sum = ewise_add(kSample, other);
  EXPECT_EQ(triples(sum), (Triples{{"1.2.3.4", "classification|malicious", 1.0},
                                   {"1.2.3.4", "contacts", 17.0},
                                   {"1.2.3.4", "intent|scan", 1.0},
                                   {"1.2.3.4", "protocol|udp", 1.0},
                                   {"5.6.7.8", "classification|benign", 1.0},
                                   {"5.6.7.8", "contacts", 2.0},
                                   {"5.6.7.8", "intent|worm", 1.0},
                                   {"5.6.7.8", "protocol|tcp", 3.0}}));
  EXPECT_EQ(triples(ewise_max(other, kSample)), triples(sum));
  EXPECT_TRUE(ewise_mult(kSample, other).empty());
  EXPECT_EQ(triples(oracle::row_sum(sum)),
            (Triples{{"1.2.3.4", "sum", 20.0}, {"5.6.7.8", "sum", 7.0}}));
  EXPECT_EQ(triples(oracle::select_cols_prefix(sum, "intent|")),
            (Triples{{"1.2.3.4", "intent|scan", 1.0}, {"5.6.7.8", "intent|worm", 1.0}}));
}

TEST(AssocKernelTest, StoredZerosAndNegativeValues) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  const AssocArray a = build(
      {{"r", "c1", 0.0}, {"r", "c2", -3.5}, {"s", "c1", -0.0}, {"s", "c3", 2.0}, {"t", "c2", inf}});
  const AssocArray b = build(
      {{"r", "c1", -1.0}, {"r", "c2", 3.5}, {"s", "c1", 0.0}, {"t", "c2", -inf}, {"u", "c3", nan}});
  // Sums that cancel stay stored (D4M keeps explicit zeros), and -0 + 0
  // is +0. The FPU picks the sign of inf + -inf's NaN, so that cell is
  // checked apart.
  Triples sum = triples(ewise_add(a, b));
  ASSERT_EQ(sum.size(), 6u);
  EXPECT_TRUE(std::isnan(sum[4].val));
  sum[4].val = 0.0;
  EXPECT_EQ(sum, (Triples{{"r", "c1", -1.0},
                          {"r", "c2", 0.0},
                          {"s", "c1", 0.0},
                          {"s", "c3", 2.0},
                          {"t", "c2", 0.0},
                          {"u", "c3", nan}}));
  EXPECT_EQ(triples(ewise_mult(a, b)), (Triples{{"r", "c1", -0.0},
                                                {"r", "c2", -12.25},
                                                {"s", "c1", -0.0},
                                                {"t", "c2", -inf}}));
  // Signed zeros follow operand order: std::max(-0, 0) is its first operand.
  EXPECT_EQ(triples(ewise_max(a, b)), (Triples{{"r", "c1", 0.0},
                                               {"r", "c2", 3.5},
                                               {"s", "c1", -0.0},
                                               {"s", "c3", 2.0},
                                               {"t", "c2", inf},
                                               {"u", "c3", nan}}));
  EXPECT_FALSE(std::signbit(oracle::at(ewise_max(b, a), "s", "c1")));
  EXPECT_EQ(triples(oracle::row_sum(a)),
            (Triples{{"r", "sum", -3.5}, {"s", "sum", 2.0}, {"t", "sum", inf}}));
  EXPECT_EQ(triples(oracle::logical(b)), (Triples{{"r", "c1", 1.0},
                                                  {"r", "c2", 1.0},
                                                  {"s", "c1", 1.0},
                                                  {"t", "c2", 1.0},
                                                  {"u", "c3", 1.0}}));
}

TEST(AssocKernelTest, KeysThatArePrefixesOfEachOther) {
  const AssocArray a = build({{"1.2.3.4", "contacts", 1.0},
                              {"1.2.3.40", "contacts", 2.0},
                              {"1.2.3.4", "contacts|x", 5.0}});
  const AssocArray b = build({{"1.2.3.40", "contacts", 7.0},
                              {"1.2.3.400", "contacts|x", 1.0},
                              {"1.2.3.4", "contact", 2.0}});
  const AssocArray sum = ewise_add(a, b);
  EXPECT_EQ(triples(sum), (Triples{{"1.2.3.4", "contact", 2.0},
                                   {"1.2.3.4", "contacts", 1.0},
                                   {"1.2.3.4", "contacts|x", 5.0},
                                   {"1.2.3.40", "contacts", 9.0},
                                   {"1.2.3.400", "contacts|x", 1.0}}));
  EXPECT_EQ(triples(ewise_mult(a, b)), (Triples{{"1.2.3.40", "contacts", 14.0}}));
  EXPECT_EQ(oracle::at(ewise_max(a, b), "1.2.3.40", "contacts"), 7.0);
  EXPECT_EQ(triples(oracle::select_cols(sum, std::vector<std::string>{"contact"})),
            (Triples{{"1.2.3.4", "contact", 2.0}}));
  EXPECT_EQ(triples(oracle::select_cols_prefix(sum, "contacts")),
            (Triples{{"1.2.3.4", "contacts", 1.0},
                     {"1.2.3.4", "contacts|x", 5.0},
                     {"1.2.3.40", "contacts", 9.0},
                     {"1.2.3.400", "contacts|x", 1.0}}));
  EXPECT_EQ(triples(oracle::row_sum(a)),
            (Triples{{"1.2.3.4", "sum", 6.0}, {"1.2.3.40", "sum", 2.0}}));
  EXPECT_FALSE(oracle::has_row(a, "1.2.3.400"));
  EXPECT_TRUE(oracle::has_row(b, "1.2.3.400"));
  EXPECT_EQ(oracle::at(a, "1.2.3.4", "contact"), 0.0);
}

TEST(AssocKernelTest, EmptyStringKeys) {
  const AssocArray a = build({{"", "", 1.0}, {"", "col", 2.0}, {"row", "", 3.0}});
  const AssocArray b = build({{"", "", 4.0}, {"row", "col", 5.0}, {"z", "", -1.0}});
  EXPECT_EQ(triples(ewise_add(a, b)), (Triples{{"", "", 5.0},
                                               {"", "col", 2.0},
                                               {"row", "", 3.0},
                                               {"row", "col", 5.0},
                                               {"z", "", -1.0}}));
  EXPECT_EQ(triples(ewise_mult(a, b)), (Triples{{"", "", 4.0}}));
  EXPECT_EQ(triples(ewise_max(b, a)), (Triples{{"", "", 4.0},
                                               {"", "col", 2.0},
                                               {"row", "", 3.0},
                                               {"row", "col", 5.0},
                                               {"z", "", -1.0}}));
  EXPECT_EQ(triples(oracle::select_cols(a, std::vector<std::string>{""})),
            (Triples{{"", "", 1.0}, {"row", "", 3.0}}));
  EXPECT_EQ(triples(oracle::select_cols_prefix(a, "")), triples(a));
  EXPECT_EQ(triples(oracle::row_sum(a)), (Triples{{"", "sum", 3.0}, {"row", "sum", 3.0}}));
  EXPECT_TRUE(oracle::has_row(a, ""));
}

TEST(AssocKernelTest, MultWithNoCommonCellIsEmpty) {
  const AssocArray other = build({{"1.2.3.4", "protocol|udp", 1.0},
                                  {"5.6.7.9", "contacts", 3.0}});
  const AssocArray product = ewise_mult(kSample, other);
  EXPECT_TRUE(product.empty());
  EXPECT_TRUE(product.row_keys().empty());
  EXPECT_TRUE(product.col_keys().empty());
  EXPECT_EQ(bytes(product), bytes(AssocArray{}));
}

TEST(AssocKernelTest, RandomArraysMatchTripleFormulation) {
  // Short keys over a tiny alphabet make shared rows, prefix keys and
  // duplicate triples common. Each array's encoding, read back and
  // viewed, lists exactly its triples, and the view finds no row for a
  // key one byte longer than a stored one unless that key is stored too.
  std::mt19937_64 rng(20261018);
  const std::string alphabet("1.2c\xff", 5);
  std::uniform_int_distribution<int> key_len(0, 3);
  std::uniform_int_distribution<std::size_t> letter(0, alphabet.size() - 1);
  std::uniform_int_distribution<int> size(0, 30);
  const double values[] = {-2.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300, -1e-300,
                           std::numeric_limits<double>::quiet_NaN()};
  std::uniform_int_distribution<std::size_t> value(0, std::size(values) - 1);
  const auto random_key = [&] {
    std::string key;
    for (int i = key_len(rng); i > 0; --i) key.push_back(alphabet[letter(rng)]);
    return key;
  };
  for (int trial = 0; trial < 200; ++trial) {
    Triples cells(static_cast<std::size_t>(size(rng)));
    for (Triple& t : cells) t = {random_key(), random_key(), values[value(rng)]};
    const AssocArray a = build(std::move(cells));
    const std::string encoded = bytes(a);
    const AssocView v = AssocView::from_bytes(as_span(encoded));
    EXPECT_EQ(triples(parse(encoded)), triples(a)) << "trial " << trial;
    EXPECT_EQ(triples(v), triples(a)) << "trial " << trial;
    for (const std::string& key : a.row_keys()) {
      for (const char letter_after : alphabet) {
        const std::string longer = key + letter_after;
        EXPECT_EQ(std::ranges::binary_search(v.row_keys(), longer), oracle::has_row(a, longer))
            << "trial " << trial;
      }
    }
  }
}

// --- AssocView::row ---------------------------------------------------------

TEST(AssocKernelTest, RowListsEntriesInColumnOrder) {
  using Entries = std::vector<std::pair<std::string_view, double>>;
  const std::string encoded = bytes(kSample);
  const auto view_of = [](const std::string& b) { return AssocView::from_bytes(as_span(b)); };
  const AssocView sample = view_of(encoded);
  EXPECT_EQ(sample.row(0),
            (Entries{{"classification|malicious", 1.0}, {"contacts", 17.0}, {"intent|scan", 1.0}}));
  EXPECT_EQ(sample.row(1), (Entries{{"classification|benign", 1.0}, {"contacts", 2.0}}));
  EXPECT_THROW((void)sample.row(2), std::invalid_argument);
  EXPECT_THROW((void)AssocView{}.row(0), std::invalid_argument);
  const std::string keyed_bytes = bytes(build({{"", "", 1.0}, {"", "c", 2.0}}));
  EXPECT_EQ(view_of(keyed_bytes).row(0), (Entries{{"", 1.0}, {"c", 2.0}}));
  // Only an address-keyed view ranks its rows.
  EXPECT_TRUE(sample.row_ranks().empty());
  const AssocView by_rank = AssocView::from_ip_bytes(as_span(encoded));
  EXPECT_EQ(std::vector<std::uint32_t>(by_rank.row_ranks().begin(), by_rank.row_ranks().end()),
            (std::vector<std::uint32_t>{ip_rank(Ipv4(1, 2, 3, 4)), ip_rank(Ipv4(5, 6, 7, 8))}));
  EXPECT_EQ(by_rank.row(1), sample.row(1));
}

// --- from_csr -------------------------------------------------------------

struct Csr {
  std::vector<std::string> rows;
  std::vector<std::string> cols;
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> val;
};

/// The OBSD4MA1 bytes of arbitrary (possibly non-canonical) CSR arrays.
std::string serialize(const Csr& csr) {
  std::string out("OBSD4MA1");
  const auto pod = [&out](const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const auto* keys : {&csr.rows, &csr.cols}) {
    pod(static_cast<std::uint64_t>(keys->size()));
    for (const std::string& k : *keys) {
      pod(static_cast<std::uint32_t>(k.size()));
      out += k;
    }
  }
  pod(static_cast<std::uint64_t>(csr.col_idx.size()));
  for (const auto v : csr.row_ptr) pod(v);
  for (const auto v : csr.col_idx) pod(v);
  for (const auto v : csr.val) pod(v);
  return out;
}

AssocArray adopt(const Csr& csr) {
  return AssocArray::from_csr(csr.rows, csr.cols, csr.row_ptr, csr.col_idx, csr.val);
}

// alpha: {c1: 1}, beta: {c1: 2, c2: 3}
const Csr kValid{{"alpha", "beta"}, {"c1", "c2"}, {0, 1, 3}, {0, 0, 1}, {1.0, 2.0, 3.0}};

TEST(AssocKernelTest, FromCsrAdoptsCanonicalArrays) {
  const AssocArray a = adopt(kValid);
  EXPECT_EQ(bytes(a), bytes(build({{"alpha", "c1", 1.0}, {"beta", "c1", 2.0}, {"beta", "c2", 3.0}})));
  EXPECT_EQ(bytes(a), serialize(kValid));
  EXPECT_EQ(bytes(AssocArray::from_csr({}, {}, {0}, {}, {})), bytes(AssocArray{}));
}

TEST(AssocKernelTest, FromCsrRejectsWhatReadBinaryRejects) {
  const struct {
    const char* what;
    std::function<void(Csr&)> spoil;
  } cases[] = {
      {"row keys out of order", [](Csr& c) { std::swap(c.rows[0], c.rows[1]); }},
      {"duplicate row keys", [](Csr& c) { c.rows[1] = c.rows[0]; }},
      {"col keys out of order", [](Csr& c) { std::swap(c.cols[0], c.cols[1]); }},
      {"duplicate col keys", [](Csr& c) { c.cols[1] = c.cols[0]; }},
      {"first offset not zero", [](Csr& c) { c.row_ptr[0] = 1; }},
      {"last offset not nnz", [](Csr& c) { c.row_ptr[2] = 2; }},
      {"empty row",
       [](Csr& c) {
         c.rows.push_back("gamma");
         c.row_ptr.push_back(3);
       }},
      {"offset past nnz", [](Csr& c) { c.row_ptr[1] = 1'000'000; }},
      {"column index out of range", [](Csr& c) { c.col_idx[2] = 2; }},
      {"repeated column in a row", [](Csr& c) { c.col_idx[2] = 0; }},
      {"descending columns in a row",
       [](Csr& c) {
         c.col_idx[1] = 1;
         c.col_idx[2] = 0;
       }},
      {"unused column key", [](Csr& c) { c.cols.push_back("c3"); }},
  };
  for (const auto& test : cases) {
    Csr csr = kValid;
    test.spoil(csr);
    std::string from_csr_error, read_binary_error;
    try {
      adopt(csr);
    } catch (const std::invalid_argument& e) {
      from_csr_error = e.what();
    }
    try {
      parse(serialize(csr));
    } catch (const std::invalid_argument& e) {
      read_binary_error = e.what();
    }
    ASSERT_FALSE(read_binary_error.empty()) << test.what << ": read_binary accepted it";
    ASSERT_FALSE(from_csr_error.empty()) << test.what << ": from_csr accepted it";
    // One validator: the same message after the caller's name.
    const auto detail = [](const std::string& msg, const std::string& who) {
      const auto at = msg.rfind(who + ": ");
      return at == std::string::npos ? msg : msg.substr(at + who.size() + 2);
    };
    EXPECT_EQ(detail(from_csr_error, "from_csr"), detail(read_binary_error, "read_binary"))
        << test.what;
  }
}

TEST(AssocKernelTest, FromCsrRejectsMismatchedArrayLengths) {
  Csr short_ptr = kValid;
  short_ptr.row_ptr.pop_back();
  EXPECT_THROW(adopt(short_ptr), std::invalid_argument);
  Csr short_val = kValid;
  short_val.val.pop_back();
  EXPECT_THROW(adopt(short_val), std::invalid_argument);
  EXPECT_THROW(AssocArray::from_csr({}, {}, {}, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace obscorr::d4m
