#include "d4m/assoc.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>

#include "common/error.hpp"
#include "d4m/gbl_bridge.hpp"

namespace obscorr::d4m {

AssocArray::AssocArray() { row_ptr_.push_back(0); }

namespace {

/// The canonical-form checks of `from_csr`, `read_binary` (both through
/// `validate`) and the `AssocView` factories: strictly increasing row and
/// column keys, offsets covering [0, nnz] with no empty row, column
/// indices in range and strictly increasing within each row, and every
/// column key referenced. `row_ptr(r)` and `col_idx(k)` read the arrays,
/// which hold rows + 1 and nnz elements. When `ranks` is given, every row
/// key must also be a canonical dotted quad, and the row order is checked
/// on the keys' ranks (`parse_rank`, whose order is the keys' order) as
/// they are stored into `ranks`. Throws std::invalid_argument with
/// messages prefixed by `who`.
template <typename RowKeys, typename ColKeys, typename RowPtr, typename ColIdx>
void check_canonical(std::string_view who, const RowKeys& row_keys, const ColKeys& col_keys,
                     std::uint64_t nnz, RowPtr row_ptr, ColIdx col_idx,
                     std::vector<std::uint32_t>* ranks = nullptr) {
  const auto fail = [who](std::string_view what) {
    return std::string(who) + ": " + std::string(what);
  };
  if (ranks != nullptr) {
    ranks->resize(row_keys.size());
    for (std::size_t i = 0; i < row_keys.size(); ++i) {
      const std::optional<std::uint32_t> rank = parse_rank(row_keys[i]);
      OBSCORR_REQUIRE(rank.has_value(), fail("row key is not a canonical dotted quad"));
      OBSCORR_REQUIRE(i == 0 || (*ranks)[i - 1] < *rank,
                      fail("row keys must be strictly increasing"));
      (*ranks)[i] = *rank;
    }
  } else {
    for (std::size_t i = 1; i < row_keys.size(); ++i) {
      OBSCORR_REQUIRE(row_keys[i - 1] < row_keys[i],
                      fail("row keys must be strictly increasing"));
    }
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

AssocView AssocView::view(std::span<const std::byte> bytes, std::shared_ptr<const void> owner,
                          bool ip_keyed) {
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
      [&v](std::size_t k) { return v.col_idx(k); }, ip_keyed ? &v.row_ranks_ : nullptr);
  v.owner_ = std::move(owner);
  return v;
}

AssocView AssocView::from_bytes(std::span<const std::byte> bytes,
                                std::shared_ptr<const void> owner) {
  return view(bytes, std::move(owner), false);
}

AssocView AssocView::from_ip_bytes(std::span<const std::byte> bytes,
                                   std::shared_ptr<const void> owner) {
  return view(bytes, std::move(owner), true);
}

std::uint64_t AssocView::row_ptr(std::size_t r) const { return load<std::uint64_t>(row_ptr_, r); }

std::uint32_t AssocView::col_idx(std::size_t k) const { return load<std::uint32_t>(col_idx_, k); }

double AssocView::val(std::size_t k) const { return load<double>(val_, k); }

std::vector<std::pair<std::string_view, double>> AssocView::row(std::size_t r) const {
  OBSCORR_REQUIRE(r < row_keys_.size(), "AssocView: row index out of range");
  std::vector<std::pair<std::string_view, double>> entries;
  const auto begin = static_cast<std::size_t>(row_ptr(r));
  const auto end = static_cast<std::size_t>(row_ptr(r + 1));
  entries.reserve(end - begin);
  for (std::size_t k = begin; k < end; ++k) entries.emplace_back(col_keys_[col_idx(k)], val(k));
  return entries;
}

}  // namespace obscorr::d4m
