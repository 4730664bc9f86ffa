/// The CSR kernels (element-wise ops, column selection, row sums,
/// zero-norm) against the triple formulation: every operand is expanded
/// to sorted (row, col, value) triples, combined, and rebuilt through
/// `from_triples`. Results are compared as `write_binary` bytes, which
/// also pins NaN payloads and signed zeros that `operator==` cannot.
/// `from_csr` must reject every non-canonical input `read_binary` rejects.

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

#include "d4m/assoc.hpp"

namespace obscorr::d4m {
namespace {

std::string bytes(const AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

// --- Reference: the triple formulation ------------------------------------

bool triple_key_less(const Triple& a, const Triple& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

enum class Op { kAdd, kMult, kMax };

AssocArray reference_merge(const AssocArray& a, const AssocArray& b, Op op) {
  const bool intersect = op == Op::kMult;
  const auto ta = a.to_triples();
  const auto tb = b.to_triples();
  const auto combine = [op](double x, double y) {
    switch (op) {
      case Op::kAdd:
        return x + y;
      case Op::kMult:
        return x * y;
      case Op::kMax:
        return std::max(x, y);
    }
    return 0.0;
  };
  std::vector<Triple> out;
  std::size_t i = 0, j = 0;
  while (i < ta.size() && j < tb.size()) {
    const Triple& x = ta[i];
    const Triple& y = tb[j];
    if (x.row == y.row && x.col == y.col) {
      out.push_back({x.row, x.col, combine(x.val, y.val)});
      ++i;
      ++j;
    } else if (triple_key_less(x, y)) {
      if (!intersect) out.push_back(x);
      ++i;
    } else {
      if (!intersect) out.push_back(y);
      ++j;
    }
  }
  if (!intersect) {
    out.insert(out.end(), ta.begin() + static_cast<std::ptrdiff_t>(i), ta.end());
    out.insert(out.end(), tb.begin() + static_cast<std::ptrdiff_t>(j), tb.end());
  }
  return AssocArray::from_triples(std::move(out));
}

AssocArray reference_filter(const AssocArray& a,
                            const std::function<bool(const Triple&)>& keep) {
  std::vector<Triple> kept;
  for (const Triple& t : a.to_triples()) {
    if (keep(t)) kept.push_back(t);
  }
  return AssocArray::from_triples(std::move(kept));
}

AssocArray reference_select_cols(const AssocArray& a, std::vector<std::string> keys) {
  std::sort(keys.begin(), keys.end());
  return reference_filter(
      a, [&](const Triple& t) { return std::binary_search(keys.begin(), keys.end(), t.col); });
}

AssocArray reference_select_cols_prefix(const AssocArray& a, const std::string& prefix) {
  return reference_filter(a, [&](const Triple& t) { return t.col.starts_with(prefix); });
}

AssocArray reference_row_sum(const AssocArray& a) {
  std::vector<Triple> sums;
  const auto triples = a.to_triples();
  for (std::size_t k = 0; k < triples.size(); ++k) {
    if (k == 0 || triples[k - 1].row != triples[k].row) {
      sums.push_back({triples[k].row, "sum", 0.0});
    }
    sums.back().val += triples[k].val;
  }
  return AssocArray::from_triples(std::move(sums));
}

AssocArray reference_logical(const AssocArray& a) {
  auto triples = a.to_triples();
  for (Triple& t : triples) t.val = 1.0;
  return AssocArray::from_triples(std::move(triples));
}

// --- Comparison against the reference ------------------------------------

/// Every kernel on (a, b) and on each operand alone, byte-compared with
/// the reference.
void expect_kernels_match(const AssocArray& a, const AssocArray& b, const std::string& label) {
  const struct {
    const char* name;
    AssocArray (*kernel)(const AssocArray&, const AssocArray&);
    Op op;
  } binary[] = {{"ewise_add", &AssocArray::ewise_add, Op::kAdd},
                {"ewise_mult", &AssocArray::ewise_mult, Op::kMult},
                {"ewise_max", &AssocArray::ewise_max, Op::kMax}};
  for (const auto& k : binary) {
    EXPECT_EQ(bytes(k.kernel(a, b)), bytes(reference_merge(a, b, k.op)))
        << label << ": " << k.name << "(a, b)";
    EXPECT_EQ(bytes(k.kernel(b, a)), bytes(reference_merge(b, a, k.op)))
        << label << ": " << k.name << "(b, a)";
  }
  for (const AssocArray* x : {&a, &b}) {
    const std::string side = label + (x == &a ? " [a]" : " [b]");
    EXPECT_EQ(bytes(x->row_sum()), bytes(reference_row_sum(*x))) << side << ": row_sum";
    EXPECT_EQ(bytes(x->logical()), bytes(reference_logical(*x))) << side << ": logical";
    // Column selections: every present key, a key that is absent, a key
    // that is a textual prefix of present keys, and the empty key.
    std::vector<std::string> keys(x->col_keys().begin(), x->col_keys().end());
    for (std::size_t n = 0; n <= keys.size(); ++n) {
      std::vector<std::string> some(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(n));
      some.push_back("absent");
      some.push_back("1.2.3.4");
      some.push_back("");
      EXPECT_EQ(bytes(x->select_cols(some)), bytes(reference_select_cols(*x, some)))
          << side << ": select_cols of " << n << " keys";
    }
    for (const std::string prefix : {"", "1", "1.2.3.4", "c", "intent|", "\xff", "zzz"}) {
      EXPECT_EQ(bytes(x->select_cols_prefix(prefix)),
                bytes(reference_select_cols_prefix(*x, prefix)))
          << side << ": select_cols_prefix(\"" << prefix << "\")";
    }
  }
}

AssocArray build(std::vector<Triple> triples) {
  return AssocArray::from_triples(std::move(triples));
}

// --- Fixed cases ----------------------------------------------------------

const AssocArray kSample = build({{"1.2.3.4", "classification|malicious", 1.0},
                                  {"1.2.3.4", "contacts", 17.0},
                                  {"1.2.3.4", "intent|scan", 1.0},
                                  {"5.6.7.8", "classification|benign", 1.0},
                                  {"5.6.7.8", "contacts", 2.0}});

TEST(AssocKernelTest, EmptyOperands) {
  expect_kernels_match(AssocArray{}, AssocArray{}, "empty, empty");
  expect_kernels_match(kSample, AssocArray{}, "sample, empty");
  EXPECT_EQ(bytes(AssocArray::ewise_add(kSample, AssocArray{})), bytes(kSample));
  EXPECT_TRUE(AssocArray::ewise_mult(kSample, AssocArray{}).empty());
}

TEST(AssocKernelTest, ArrayWithItself) { expect_kernels_match(kSample, kSample, "a op a"); }

TEST(AssocKernelTest, DisjointRows) {
  const AssocArray other = build({{"9.9.9.9", "contacts", 4.0},
                                  {"0.0.0.1", "classification|benign", 1.0},
                                  {"9.9.9.9", "protocol|tcp", 1.0}});
  expect_kernels_match(kSample, other, "disjoint rows");
  EXPECT_EQ(AssocArray::ewise_add(kSample, other).row_keys().size(), 4u);
}

TEST(AssocKernelTest, SharedRowsDisjointColumns) {
  const AssocArray other = build({{"1.2.3.4", "protocol|udp", 1.0},
                                  {"5.6.7.8", "intent|worm", 1.0},
                                  {"5.6.7.8", "protocol|tcp", 3.0}});
  expect_kernels_match(kSample, other, "shared rows, disjoint columns");
}

TEST(AssocKernelTest, StoredZerosAndNegativeValues) {
  const AssocArray a = build({{"r", "c1", 0.0},
                              {"r", "c2", -3.5},
                              {"s", "c1", -0.0},
                              {"s", "c3", 2.0},
                              {"t", "c2", std::numeric_limits<double>::infinity()}});
  const AssocArray b = build({{"r", "c1", -1.0},
                              {"r", "c2", 3.5},
                              {"s", "c1", 0.0},
                              {"t", "c2", -std::numeric_limits<double>::infinity()},
                              {"u", "c3", std::numeric_limits<double>::quiet_NaN()}});
  expect_kernels_match(a, b, "zeros and negatives");
  // Sums that cancel stay stored (D4M keeps explicit zeros).
  const AssocArray sum = AssocArray::ewise_add(a, b);
  EXPECT_EQ(sum.nnz(), 6u);
  EXPECT_EQ(sum.row("r"), (std::vector<std::pair<std::string_view, double>>{{"c1", -1.0},
                                                                            {"c2", 0.0}}));
}

TEST(AssocKernelTest, KeysThatArePrefixesOfEachOther) {
  const AssocArray a = build({{"1.2.3.4", "contacts", 1.0},
                              {"1.2.3.40", "contacts", 2.0},
                              {"1.2.3.4", "contacts|x", 5.0}});
  const AssocArray b = build({{"1.2.3.40", "contacts", 7.0},
                              {"1.2.3.400", "contacts|x", 1.0},
                              {"1.2.3.4", "contact", 2.0}});
  expect_kernels_match(a, b, "prefix keys");
}

TEST(AssocKernelTest, EmptyStringKeys) {
  const AssocArray a = build({{"", "", 1.0}, {"", "col", 2.0}, {"row", "", 3.0}});
  const AssocArray b = build({{"", "", 4.0}, {"row", "col", 5.0}, {"z", "", -1.0}});
  expect_kernels_match(a, b, "empty-string keys");
}

TEST(AssocKernelTest, MultWithNoCommonCellIsEmpty) {
  const AssocArray other = build({{"1.2.3.4", "protocol|udp", 1.0},
                                  {"5.6.7.9", "contacts", 3.0}});
  expect_kernels_match(kSample, other, "no common cell");
  const AssocArray product = AssocArray::ewise_mult(kSample, other);
  EXPECT_TRUE(product.empty());
  EXPECT_TRUE(product.row_keys().empty());
  EXPECT_TRUE(product.col_keys().empty());
  EXPECT_EQ(bytes(product), bytes(AssocArray{}));
}

TEST(AssocKernelTest, RandomArraysMatchTripleFormulation) {
  // Short keys over a tiny alphabet make shared rows, shared columns,
  // prefix keys and duplicate triples common.
  std::mt19937_64 rng(20261018);
  const std::string alphabet("1.2c\xff", 5);
  std::uniform_int_distribution<int> key_len(0, 3);
  std::uniform_int_distribution<std::size_t> letter(0, alphabet.size() - 1);
  std::uniform_int_distribution<int> size(0, 30);
  const double values[] = {-2.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300, -1e-300};
  std::uniform_int_distribution<std::size_t> value(0, std::size(values) - 1);
  const auto random_key = [&] {
    std::string key;
    for (int i = key_len(rng); i > 0; --i) key.push_back(alphabet[letter(rng)]);
    return key;
  };
  const auto random_array = [&] {
    std::vector<Triple> triples(static_cast<std::size_t>(size(rng)));
    for (Triple& t : triples) t = {random_key(), random_key(), values[value(rng)]};
    return build(std::move(triples));
  };
  for (int trial = 0; trial < 200; ++trial) {
    expect_kernels_match(random_array(), random_array(), "trial " + std::to_string(trial));
  }
}

// --- row() ----------------------------------------------------------------

TEST(AssocKernelTest, RowListsEntriesInColumnOrder) {
  using Entries = std::vector<std::pair<std::string_view, double>>;
  EXPECT_EQ(kSample.row("1.2.3.4"),
            (Entries{{"classification|malicious", 1.0}, {"contacts", 17.0}, {"intent|scan", 1.0}}));
  EXPECT_EQ(kSample.row("5.6.7.8"), (Entries{{"classification|benign", 1.0}, {"contacts", 2.0}}));
  EXPECT_TRUE(kSample.row("1.2.3").empty());
  EXPECT_TRUE(kSample.row("1.2.3.40").empty());
  EXPECT_TRUE(AssocArray{}.row("").empty());
  const AssocArray keyed = build({{"", "", 1.0}, {"", "c", 2.0}});
  EXPECT_EQ(keyed.row(""), (Entries{{"", 1.0}, {"c", 2.0}}));
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

AssocArray parse(const std::string& b) {
  return AssocArray::read_binary(std::as_bytes(std::span<const char>(b.data(), b.size())));
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
