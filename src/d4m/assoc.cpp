#include "d4m/assoc.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <set>

#include "common/error.hpp"

namespace obscorr::d4m {

AssocArray::AssocArray() { row_ptr_.push_back(0); }

namespace {

bool triple_key_less(const Triple& a, const Triple& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

std::uint32_t key_index(const std::vector<std::string>& keys, std::string_view key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  OBSCORR_INVARIANT(it != keys.end() && *it == key);
  return static_cast<std::uint32_t>(it - keys.begin());
}

/// The canonical-form checks of `from_csr`, `read_binary` (both through
/// `validate`) and `AssocView::from_bytes`: strictly increasing row and
/// column keys, offsets covering [0, nnz] with no empty row, column
/// indices in range and strictly increasing within each row, and every
/// column key referenced. `row_ptr(r)` and `col_idx(k)` read the arrays,
/// which hold rows + 1 and nnz elements. Throws std::invalid_argument
/// with messages prefixed by `who`.
template <typename RowKeys, typename ColKeys, typename RowPtr, typename ColIdx>
void check_canonical(std::string_view who, const RowKeys& row_keys, const ColKeys& col_keys,
                     std::uint64_t nnz, RowPtr row_ptr, ColIdx col_idx) {
  const auto fail = [who](std::string_view what) {
    return std::string(who) + ": " + std::string(what);
  };
  for (std::size_t i = 1; i < row_keys.size(); ++i) {
    OBSCORR_REQUIRE(row_keys[i - 1] < row_keys[i], fail("row keys must be strictly increasing"));
  }
  for (std::size_t i = 1; i < col_keys.size(); ++i) {
    OBSCORR_REQUIRE(col_keys[i - 1] < col_keys[i], fail("col keys must be strictly increasing"));
  }
  const std::size_t rows = row_keys.size();
  OBSCORR_REQUIRE(row_ptr(0) == 0 && row_ptr(rows) == nnz, fail("inconsistent row offsets"));
  std::vector<bool> col_used(col_keys.size(), false);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t begin = row_ptr(r);
    const std::uint64_t end = row_ptr(r + 1);
    OBSCORR_REQUIRE(begin < end, fail("row offsets must be strictly increasing"));
    // Bounds the scan below: front and back alone leave the interior free.
    OBSCORR_REQUIRE(end <= nnz, fail("row offset exceeds the entry count"));
    std::uint32_t prev = 0;
    for (std::uint64_t k = begin; k < end; ++k) {
      const std::uint32_t c = col_idx(static_cast<std::size_t>(k));
      OBSCORR_REQUIRE(c < col_keys.size(), fail("column index out of range"));
      OBSCORR_REQUIRE(k == begin || prev < c,
                      fail("column indices must be strictly increasing within a row"));
      col_used[c] = true;
      prev = c;
    }
  }
  for (std::size_t c = 0; c < col_used.size(); ++c) {
    OBSCORR_REQUIRE(col_used[c], fail("unused column key"));
  }
}

}  // namespace

AssocArray AssocArray::from_triples(std::vector<Triple> triples) {
  std::sort(triples.begin(), triples.end(), triple_key_less);
  // Accumulate duplicates (plus semiring).
  std::size_t out = 0;
  for (std::size_t i = 1; i < triples.size(); ++i) {
    if (triples[out].row == triples[i].row && triples[out].col == triples[i].col) {
      triples[out].val += triples[i].val;
    } else if (++out != i) {  // guard against self-move when nothing was combined
      triples[out] = std::move(triples[i]);
    }
  }
  if (!triples.empty()) triples.resize(out + 1);

  AssocArray a;
  if (triples.empty()) return a;

  for (const Triple& t : triples) {
    if (a.row_keys_.empty() || a.row_keys_.back() != t.row) a.row_keys_.push_back(t.row);
  }
  std::set<std::string> cols;
  for (const Triple& t : triples) cols.insert(t.col);
  a.col_keys_.assign(cols.begin(), cols.end());

  a.row_ptr_.clear();
  a.col_idx_.reserve(triples.size());
  a.val_.reserve(triples.size());
  for (std::size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    if (i == 0 || triples[i - 1].row != t.row) {
      a.row_ptr_.push_back(static_cast<std::uint64_t>(i));
    }
    a.col_idx_.push_back(key_index(a.col_keys_, t.col));
    a.val_.push_back(t.val);
  }
  a.row_ptr_.push_back(static_cast<std::uint64_t>(triples.size()));
  OBSCORR_INVARIANT(a.row_ptr_.size() == a.row_keys_.size() + 1);
  return a;
}

AssocArray AssocArray::from_csr(std::vector<std::string> row_keys,
                                std::vector<std::string> col_keys,
                                std::vector<std::uint64_t> row_ptr,
                                std::vector<std::uint32_t> col_idx, std::vector<double> val) {
  AssocArray a;
  a.row_keys_ = std::move(row_keys);
  a.col_keys_ = std::move(col_keys);
  a.row_ptr_ = std::move(row_ptr);
  a.col_idx_ = std::move(col_idx);
  a.val_ = std::move(val);
  a.validate("from_csr");
  return a;
}

double AssocArray::at(std::string_view row, std::string_view col) const {
  const auto rit = std::lower_bound(row_keys_.begin(), row_keys_.end(), row);
  if (rit == row_keys_.end() || *rit != row) return 0.0;
  const auto cit = std::lower_bound(col_keys_.begin(), col_keys_.end(), col);
  if (cit == col_keys_.end() || *cit != col) return 0.0;
  const std::size_t r = static_cast<std::size_t>(rit - row_keys_.begin());
  const auto c = static_cast<std::uint32_t>(cit - col_keys_.begin());
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return val_[static_cast<std::size_t>(it - col_idx_.begin())];
}

bool AssocArray::has_row(std::string_view row) const {
  return std::binary_search(row_keys_.begin(), row_keys_.end(), row);
}

std::vector<std::pair<std::string_view, double>> AssocArray::row(std::string_view key) const {
  std::vector<std::pair<std::string_view, double>> entries;
  const auto it = std::lower_bound(row_keys_.begin(), row_keys_.end(), key);
  if (it == row_keys_.end() || *it != key) return entries;
  const auto r = static_cast<std::size_t>(it - row_keys_.begin());
  entries.reserve(static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r]));
  for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
    entries.emplace_back(col_keys_[col_idx_[k]], val_[k]);
  }
  return entries;
}

namespace {

/// Sorted union of two sorted unique key sets; `a_pos` / `b_pos` receive
/// each input key's index in the union (monotone remaps).
std::vector<std::string> union_with_positions(const std::vector<std::string>& a,
                                              const std::vector<std::string>& b,
                                              std::vector<std::uint32_t>& a_pos,
                                              std::vector<std::uint32_t>& b_pos) {
  std::vector<std::string> keys;
  keys.reserve(a.size() + b.size());
  a_pos.resize(a.size());
  b_pos.resize(b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const int order = i == a.size() ? 1 : j == b.size() ? -1 : a[i].compare(b[j]);
    const auto at = static_cast<std::uint32_t>(keys.size());
    if (order <= 0) a_pos[i] = at;
    if (order >= 0) b_pos[j] = at;
    keys.push_back(order <= 0 ? a[i] : b[j]);
    if (order <= 0) ++i;
    if (order >= 0) ++j;
  }
  return keys;
}

/// Drop the column keys no entry references and renumber `col_idx`; the
/// renumbering is monotone, so every row stays sorted.
void drop_unused_cols(std::vector<std::string>& cols, std::vector<std::uint32_t>& col_idx) {
  constexpr std::uint32_t kUnused = ~std::uint32_t{0};
  std::vector<std::uint32_t> remap(cols.size(), kUnused);
  for (const std::uint32_t c : col_idx) remap[c] = 0;
  std::uint32_t kept = 0;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (remap[c] == kUnused) continue;
    remap[c] = kept;
    if (kept != c) cols[kept] = std::move(cols[c]);
    ++kept;
  }
  if (kept == cols.size()) return;
  cols.resize(kept);
  for (std::uint32_t& c : col_idx) c = remap[c];
}

}  // namespace

template <typename Combine>
AssocArray AssocArray::merge(const AssocArray& a, const AssocArray& b, bool intersect,
                             Combine combine) {
  AssocArray out;
  std::vector<std::uint32_t> a_col, b_col;
  out.col_keys_ = union_with_positions(a.col_keys_, b.col_keys_, a_col, b_col);
  const std::size_t cap = intersect ? std::min(a.nnz(), b.nnz()) : a.nnz() + b.nnz();
  out.col_idx_.reserve(cap);
  out.val_.reserve(cap);
  const auto push = [&out](std::uint32_t col, double val) {
    out.col_idx_.push_back(col);
    out.val_.push_back(val);
  };
  const auto end_row = [&out](const std::string& key) {
    out.row_keys_.push_back(key);
    out.row_ptr_.push_back(out.col_idx_.size());
  };
  const auto copy_row = [&](const AssocArray& x, const std::vector<std::uint32_t>& pos,
                            std::size_t r) {
    for (std::uint64_t k = x.row_ptr_[r]; k < x.row_ptr_[r + 1]; ++k) {
      push(pos[x.col_idx_[k]], x.val_[k]);
    }
    end_row(x.row_keys_[r]);
  };

  std::size_t i = 0, j = 0;
  while (i < a.row_keys_.size() && j < b.row_keys_.size()) {
    const int order = a.row_keys_[i].compare(b.row_keys_[j]);
    if (order < 0) {
      if (!intersect) copy_row(a, a_col, i);
      ++i;
      continue;
    }
    if (order > 0) {
      if (!intersect) copy_row(b, b_col, j);
      ++j;
      continue;
    }
    // Shared row: both column lists ascend in the union's numbering.
    std::uint64_t p = a.row_ptr_[i];
    std::uint64_t q = b.row_ptr_[j];
    const std::uint64_t p_end = a.row_ptr_[i + 1];
    const std::uint64_t q_end = b.row_ptr_[j + 1];
    const std::size_t before = out.col_idx_.size();
    while (p < p_end && q < q_end) {
      const std::uint32_t ca = a_col[a.col_idx_[p]];
      const std::uint32_t cb = b_col[b.col_idx_[q]];
      if (ca == cb) {
        push(ca, combine(a.val_[p++], b.val_[q++]));
      } else if (ca < cb) {
        if (!intersect) push(ca, a.val_[p]);
        ++p;
      } else {
        if (!intersect) push(cb, b.val_[q]);
        ++q;
      }
    }
    if (!intersect) {
      for (; p < p_end; ++p) push(a_col[a.col_idx_[p]], a.val_[p]);
      for (; q < q_end; ++q) push(b_col[b.col_idx_[q]], b.val_[q]);
    }
    if (out.col_idx_.size() != before) end_row(a.row_keys_[i]);
    ++i;
    ++j;
  }
  if (!intersect) {
    for (; i < a.row_keys_.size(); ++i) copy_row(a, a_col, i);
    for (; j < b.row_keys_.size(); ++j) copy_row(b, b_col, j);
  } else {
    drop_unused_cols(out.col_keys_, out.col_idx_);
  }
  return out;
}

AssocArray AssocArray::ewise_add(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, /*intersect=*/false, [](double x, double y) { return x + y; });
}

AssocArray AssocArray::ewise_mult(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, /*intersect=*/true, [](double x, double y) { return x * y; });
}

AssocArray AssocArray::ewise_max(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, /*intersect=*/false, [](double x, double y) { return std::max(x, y); });
}

AssocArray AssocArray::logical() const {
  AssocArray a = *this;
  std::fill(a.val_.begin(), a.val_.end(), 1.0);
  return a;
}

AssocArray AssocArray::filter(const std::vector<bool>& keep_col) const {
  AssocArray out;
  out.col_keys_ = col_keys_;
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    const std::size_t before = out.col_idx_.size();
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (!keep_col[col_idx_[k]]) continue;
      out.col_idx_.push_back(col_idx_[k]);
      out.val_.push_back(val_[k]);
    }
    if (out.col_idx_.size() == before) continue;
    out.row_keys_.push_back(row_keys_[r]);
    out.row_ptr_.push_back(out.col_idx_.size());
  }
  drop_unused_cols(out.col_keys_, out.col_idx_);
  return out;
}

AssocArray AssocArray::select_cols(std::span<const std::string> keys) const {
  std::vector<std::string> wanted(keys.begin(), keys.end());
  std::sort(wanted.begin(), wanted.end());
  std::vector<bool> keep(col_keys_.size());
  for (std::size_t c = 0; c < col_keys_.size(); ++c) {
    keep[c] = std::binary_search(wanted.begin(), wanted.end(), col_keys_[c]);
  }
  return filter(keep);
}

AssocArray AssocArray::select_cols_prefix(std::string_view prefix) const {
  std::vector<bool> keep(col_keys_.size());
  for (std::size_t c = 0; c < col_keys_.size(); ++c) keep[c] = col_keys_[c].starts_with(prefix);
  return filter(keep);
}

AssocArray AssocArray::row_sum() const {
  AssocArray out;
  if (row_keys_.empty()) return out;
  out.row_keys_ = row_keys_;
  out.col_keys_ = {"sum"};
  out.col_idx_.assign(row_keys_.size(), 0);
  out.val_.reserve(row_keys_.size());
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    double total = 0.0;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) total += val_[k];
    out.val_.push_back(total);
    out.row_ptr_.push_back(r + 1);
  }
  return out;
}

double AssocArray::reduce_sum() const {
  double total = 0.0;
  for (double v : val_) total += v;
  return total;
}

std::vector<Triple> AssocArray::to_triples() const {
  std::vector<Triple> triples;
  triples.reserve(nnz());
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      triples.push_back({row_keys_[r], col_keys_[col_idx_[k]], val_[k]});
    }
  }
  return triples;
}

namespace {

constexpr char kBinaryMagic[8] = {'O', 'B', 'S', 'D', '4', 'M', 'A', '1'};

template <typename T>
void append_pods(std::string& out, const T* values, std::size_t count) {
  out.append(reinterpret_cast<const char*>(values), count * sizeof(T));
}

/// Encoded size of a key list: u64 count, then u32 length + bytes per key.
std::size_t keys_size(const std::vector<std::string>& keys) {
  std::size_t size = sizeof(std::uint64_t);
  for (const std::string& key : keys) size += sizeof(std::uint32_t) + key.size();
  return size;
}

void append_keys(std::string& out, const std::vector<std::string>& keys) {
  const std::uint64_t count = keys.size();
  append_pods(out, &count, 1);
  for (const std::string& key : keys) {
    const auto len = static_cast<std::uint32_t>(key.size());
    append_pods(out, &len, 1);
    out.append(key);
  }
}

/// Bounds-checked cursor over an in-memory serialized array; every read
/// validates against the remaining bytes before touching them, so hostile
/// counts fail before any allocation.
struct SpanCursor {
  std::span<const std::byte> bytes;
  std::size_t pos = 0;

  std::size_t remaining() const { return bytes.size() - pos; }

  const char* take(std::size_t n) {
    OBSCORR_REQUIRE(n <= remaining(), "read_binary: truncated stream");
    const char* p = reinterpret_cast<const char*>(bytes.data()) + pos;
    pos += n;
    return p;
  }

  template <typename T>
  T pod() {
    T value{};
    std::memcpy(&value, take(sizeof value), sizeof value);
    return value;
  }
};

template <typename Key>
std::vector<Key> read_keys(SpanCursor& c, const char* what) {
  const auto count = c.pod<std::uint64_t>();
  // Each key costs at least its 4-byte length prefix, so the remaining
  // buffer bounds the plausible count — reject before reserving.
  OBSCORR_REQUIRE(count <= (1ULL << 32) && count <= c.remaining() / sizeof(std::uint32_t),
                  std::string("read_binary: implausible ") + what + " key count");
  std::vector<Key> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto len = c.pod<std::uint32_t>();
    OBSCORR_REQUIRE(len <= (1u << 20), "read_binary: implausible key length");
    keys.emplace_back(c.take(len), len);
  }
  return keys;
}

/// One serialized array split into its sections, every count and length
/// checked against the bytes: the keys as `Key` and the CSR arrays as
/// pointers into the bytes, unaligned since they follow variable-length
/// keys. The canonical form is checked by the caller.
template <typename Key>
struct Sections {
  std::vector<Key> row_keys;
  std::vector<Key> col_keys;
  const std::byte* row_ptr = nullptr;  ///< u64[rows + 1]
  const std::byte* col_idx = nullptr;  ///< u32[nnz]
  const std::byte* val = nullptr;      ///< f64[nnz]
  std::size_t nnz = 0;
};

/// The one parser of the encoding, behind `read_binary` (Key =
/// std::string: it owns its keys) and `AssocView::from_bytes` (Key =
/// std::string_view into the bytes).
template <typename Key>
Sections<Key> parse(std::span<const std::byte> bytes) {
  SpanCursor c{bytes};
  OBSCORR_REQUIRE(std::memcmp(c.take(sizeof kBinaryMagic), kBinaryMagic,
                              sizeof kBinaryMagic) == 0,
                  "read_binary: bad magic");
  Sections<Key> s;
  s.row_keys = read_keys<Key>(c, "row");
  s.col_keys = read_keys<Key>(c, "col");
  const auto nnz = c.pod<std::uint64_t>();
  OBSCORR_REQUIRE(nnz <= (1ULL << 40), "read_binary: implausible entry count");
  OBSCORR_REQUIRE(s.row_keys.size() <= nnz, "read_binary: more row keys than entries");
  s.nnz = static_cast<std::size_t>(nnz);
  const auto array = [&c](std::size_t n, std::size_t size) {
    return reinterpret_cast<const std::byte*>(c.take(n * size));
  };
  s.row_ptr = array(s.row_keys.size() + 1, sizeof(std::uint64_t));
  s.col_idx = array(s.nnz, sizeof(std::uint32_t));
  s.val = array(s.nnz, sizeof(double));
  OBSCORR_REQUIRE(c.remaining() == 0, "read_binary: trailing bytes after array");
  return s;
}

/// Unaligned load of element `i` of a little-endian array of T at `base`.
template <typename T>
T load(const std::byte* base, std::size_t i) {
  T value;
  std::memcpy(&value, base + i * sizeof(T), sizeof value);
  return value;
}

/// Copy `n` unaligned elements of T at `base` into a vector.
template <typename T>
std::vector<T> load_array(const std::byte* base, std::size_t n) {
  std::vector<T> values(n);
  if (n != 0) std::memcpy(values.data(), base, n * sizeof(T));
  return values;
}

}  // namespace

void AssocArray::write_binary(std::string& out) const {
  const std::size_t end = out.size() + sizeof kBinaryMagic + keys_size(row_keys_) +
                          keys_size(col_keys_) + sizeof(std::uint64_t) +
                          row_ptr_.size() * sizeof(std::uint64_t) +
                          col_idx_.size() * sizeof(std::uint32_t) + val_.size() * sizeof(double);
  out.reserve(end);
  out.append(kBinaryMagic, sizeof kBinaryMagic);
  append_keys(out, row_keys_);
  append_keys(out, col_keys_);
  const std::uint64_t nnz = col_idx_.size();
  append_pods(out, &nnz, 1);
  append_pods(out, row_ptr_.data(), row_ptr_.size());
  append_pods(out, col_idx_.data(), col_idx_.size());
  append_pods(out, val_.data(), val_.size());
  OBSCORR_INVARIANT(out.size() == end);
}

AssocArray AssocArray::read_binary(std::span<const std::byte> bytes) {
  Sections<std::string> s = parse<std::string>(bytes);
  AssocArray a;
  a.row_keys_ = std::move(s.row_keys);
  a.col_keys_ = std::move(s.col_keys);
  a.row_ptr_ = load_array<std::uint64_t>(s.row_ptr, a.row_keys_.size() + 1);
  a.col_idx_ = load_array<std::uint32_t>(s.col_idx, s.nnz);
  a.val_ = load_array<double>(s.val, s.nnz);
  a.validate("read_binary");
  return a;
}

void AssocArray::validate(std::string_view who) const {
  OBSCORR_REQUIRE(row_ptr_.size() == row_keys_.size() + 1,
                  std::string(who) + ": row offsets must number the row keys plus one");
  OBSCORR_REQUIRE(val_.size() == col_idx_.size(),
                  std::string(who) + ": column indices and values must have equal length");
  check_canonical(
      who, row_keys_, col_keys_, col_idx_.size(), [this](std::size_t r) { return row_ptr_[r]; },
      [this](std::size_t k) { return col_idx_[k]; });
}

AssocView AssocView::from_bytes(std::span<const std::byte> bytes,
                                std::shared_ptr<const void> owner) {
  Sections<std::string_view> s = parse<std::string_view>(bytes);
  AssocView v;
  v.row_keys_ = std::move(s.row_keys);
  v.col_keys_ = std::move(s.col_keys);
  v.row_ptr_ = s.row_ptr;
  v.col_idx_ = s.col_idx;
  v.val_ = s.val;
  v.nnz_ = s.nnz;
  check_canonical(
      "read_binary", v.row_keys_, v.col_keys_, v.nnz_,
      [&v](std::size_t r) { return v.row_ptr(r); },
      [&v](std::size_t k) { return v.col_idx(k); });
  v.owner_ = std::move(owner);
  return v;
}

std::uint64_t AssocView::row_ptr(std::size_t r) const { return load<std::uint64_t>(row_ptr_, r); }

std::uint32_t AssocView::col_idx(std::size_t k) const { return load<std::uint32_t>(col_idx_, k); }

double AssocView::val(std::size_t k) const { return load<double>(val_, k); }

std::vector<std::pair<std::string_view, double>> AssocView::row(std::string_view key) const {
  std::vector<std::pair<std::string_view, double>> entries;
  const auto it = std::lower_bound(row_keys_.begin(), row_keys_.end(), key);
  if (it == row_keys_.end() || *it != key) return entries;
  const auto r = static_cast<std::size_t>(it - row_keys_.begin());
  const auto begin = static_cast<std::size_t>(row_ptr(r));
  const auto end = static_cast<std::size_t>(row_ptr(r + 1));
  entries.reserve(end - begin);
  for (std::size_t k = begin; k < end; ++k) entries.emplace_back(col_keys_[col_idx(k)], val(k));
  return entries;
}

AssocArray AssocView::materialize() const {
  AssocArray a;
  if (row_keys_.empty()) return a;
  a.row_keys_.assign(row_keys_.begin(), row_keys_.end());
  a.col_keys_.assign(col_keys_.begin(), col_keys_.end());
  a.row_ptr_ = load_array<std::uint64_t>(row_ptr_, row_keys_.size() + 1);
  a.col_idx_ = load_array<std::uint32_t>(col_idx_, nnz_);
  a.val_ = load_array<double>(val_, nnz_);
  return a;
}

std::vector<std::string> intersect_keys(std::span<const std::string> a,
                                        std::span<const std::string> b) {
  std::vector<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace obscorr::d4m
