#include "archive/study_archive.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "archive/checksum.hpp"
#include "archive/format.hpp"
#include "archive/writer.hpp"
#include "common/error.hpp"
#include "common/interrupt.hpp"
#include "honeyfarm/honeyfarm.hpp"
#include "obs/span.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::archive {

namespace {

constexpr std::uint32_t kScenarioVersion = 1;

std::string snapshot_entry(std::size_t k, const char* part) {
  return "snapshot/" + std::to_string(k) + "/" + part;
}

std::string month_entry(std::size_t m) { return "month/" + std::to_string(m); }

void put_year_month(PayloadWriter& w, YearMonth ym) {
  w.i32(ym.year());
  w.i32(ym.month());
}

YearMonth get_year_month(PayloadReader& r) {
  const std::int32_t year = r.i32();
  const std::int32_t month = r.i32();
  OBSCORR_REQUIRE(year >= 0 && year <= 9999 && month >= 1 && month <= 12,
                  "archive: malformed year-month");
  return YearMonth(year, month);
}

void put_prefix(PayloadWriter& w, const Ipv4Prefix& p) {
  w.u32(p.base().value());
  w.i32(p.length());
}

Ipv4Prefix get_prefix(PayloadReader& r) {
  const std::uint32_t base = r.u32();
  const std::int32_t length = r.i32();
  OBSCORR_REQUIRE(length >= 0 && length <= 32, "archive: malformed prefix length");
  return Ipv4Prefix(Ipv4(base), length);
}

/// Snapshot k's Table II source reduction: u64 nnz, u32[nnz] indices,
/// pad8, f64[nnz] values. Indices strictly increasing (DCSR row order).
std::string encode_sources(const gbl::SparseVec& v) {
  PayloadWriter w;
  w.u64(v.nnz());
  w.array(v.indices());
  w.pad8();
  w.array(v.values());
  return w.take();
}

struct SourcesView {
  std::span<const gbl::Index> ids;
  std::span<const gbl::Value> counts;
};

SourcesView decode_sources(std::span<const std::byte> bytes) {
  PayloadReader r(bytes);
  const std::uint64_t nnz = r.u64();
  OBSCORR_REQUIRE(nnz <= bytes.size() / sizeof(gbl::Index),
                  "archive: source vector counts exceed the payload size");
  SourcesView v;
  v.ids = r.array<gbl::Index>(static_cast<std::size_t>(nnz));
  r.pad8();
  v.counts = r.array<gbl::Value>(static_cast<std::size_t>(nnz));
  OBSCORR_REQUIRE(r.done(), "archive: trailing bytes after source vector");
  for (std::size_t i = 1; i < v.ids.size(); ++i) {
    OBSCORR_REQUIRE(v.ids[i - 1] < v.ids[i],
                    "archive: source ids must be strictly increasing");
  }
  return v;
}

/// Window metadata: everything in SnapshotData besides the three arrays.
std::string encode_snapshot_meta(const core::SnapshotData& snap) {
  PayloadWriter w;
  put_year_month(w, snap.spec.month);
  w.str(snap.spec.start_label);
  w.f64(snap.spec.paper_duration_sec);
  w.u64(snap.spec.salt);
  w.i32(snap.month_index);
  w.u64(snap.valid_packets);
  w.u64(snap.discarded_packets);
  w.f64(snap.duration_sec);
  return w.take();
}

void decode_snapshot_meta(std::span<const std::byte> bytes, core::SnapshotData& snap) {
  PayloadReader r(bytes);
  snap.spec.month = get_year_month(r);
  snap.spec.start_label = r.str();
  snap.spec.paper_duration_sec = r.f64();
  snap.spec.salt = r.u64();
  snap.month_index = r.i32();
  snap.valid_packets = r.u64();
  snap.discarded_packets = r.u64();
  snap.duration_sec = r.f64();
  OBSCORR_REQUIRE(r.done(), "archive: trailing bytes after snapshot metadata");
}

std::string encode_assoc(const d4m::AssocArray& a) {
  std::string out;
  a.write_binary(out);
  return out;
}

d4m::AssocArray decode_assoc(std::span<const std::byte> bytes) {
  return d4m::AssocArray::read_binary(bytes);
}

/// One honeyfarm month: the fixed-size header followed by the assoc
/// array's own binary encoding.
std::string encode_month(const honeyfarm::MonthlyObservation& obs) {
  PayloadWriter w;
  put_year_month(w, obs.month);
  w.u64(obs.population_sources);
  w.u64(obs.ephemeral_sources);
  std::string out = w.take();
  obs.sources.write_binary(out);
  return out;
}

/// A month's fixed-size header, leaving `r` at the assoc array.
honeyfarm::MonthlyObservation decode_month_header(PayloadReader& r) {
  honeyfarm::MonthlyObservation obs;
  obs.month = get_year_month(r);
  obs.population_sources = r.u64();
  obs.ephemeral_sources = r.u64();
  return obs;
}

honeyfarm::MonthlyObservation decode_month(std::span<const std::byte> bytes) {
  PayloadReader r(bytes);
  honeyfarm::MonthlyObservation obs = decode_month_header(r);
  obs.sources = decode_assoc(bytes.subspan(r.position()));
  return obs;
}

/// Every entry name a complete archive of `scenario` must contain.
std::vector<std::string> expected_entries(const netgen::Scenario& scenario) {
  std::vector<std::string> names{"scenario"};
  for (std::size_t k = 0; k < scenario.snapshots.size(); ++k) {
    for (const char* part : {"meta", "matrix", "sources", "assoc"}) {
      names.push_back(snapshot_entry(k, part));
    }
  }
  for (std::size_t m = 0; m < scenario.months.size(); ++m) names.push_back(month_entry(m));
  return names;
}

void add_snapshot_entries(ArchiveWriter& w, std::size_t k, const core::SnapshotData& snap) {
  // Resume may find a prefix of a snapshot's four entries already on
  // disk; regeneration is deterministic, so only the missing ones are
  // appended and they agree with the survivors.
  if (const auto name = snapshot_entry(k, "meta"); !w.has_entry(name)) {
    w.add_entry(name, encode_snapshot_meta(snap));
  }
  if (const auto name = snapshot_entry(k, "matrix"); !w.has_entry(name)) {
    std::string payload;
    gbl::append_matrix_v2(payload, snap.matrix);
    w.add_entry(name, payload);
  }
  if (const auto name = snapshot_entry(k, "sources"); !w.has_entry(name)) {
    w.add_entry(name, encode_sources(snap.source_packets));
  }
  if (const auto name = snapshot_entry(k, "assoc"); !w.has_entry(name)) {
    w.add_entry(name, encode_assoc(snap.sources));
  }
}

bool snapshot_complete(const ArchiveWriter& w, std::size_t k) {
  for (const char* part : {"meta", "matrix", "sources", "assoc"}) {
    if (!w.has_entry(snapshot_entry(k, part))) return false;
  }
  return true;
}

/// Build the months `missing` lists as pool tasks and append them in
/// list order, so the log is the one a serial loop writes. Returns false
/// when a stop request ended the run first: no task starts after the
/// request, and the months built before it that extend the appended
/// prefix are still appended. A task's exception reaches the caller once
/// every submitted task has finished. Call from outside `pool`'s tasks:
/// this thread waits without helping, so that it only appends.
bool append_months(ArchiveWriter& writer, const netgen::Scenario& scenario,
                   const netgen::Population& population, std::span<const std::size_t> missing,
                   ThreadPool& pool) {
  // Month m's activity chain extends month m-1's, so the lazy fill is
  // serial; doing it here keeps the tasks from queueing on its mutex.
  (void)population.active(0, static_cast<int>(scenario.months.size()) - 1);

  // One future per submitted month: its encoded payload, or nullopt when
  // the stop request came before its task started.
  using Payload = std::optional<std::string>;
  std::vector<std::future<Payload>> built;
  built.reserve(missing.size());
  const auto submit = [&](std::size_t m) {
    auto promise = std::make_shared<std::promise<Payload>>();
    built.push_back(promise->get_future());
    pool.submit([&scenario, &population, m, promise] {
      try {
        promise->set_value(interrupt::stop_requested()
                               ? Payload()
                               : encode_month(core::run_month(scenario, population, m)));
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
  };
  // The tasks read `scenario` and `population`: whatever way this
  // function leaves, every submitted task has finished.
  const auto wait_all = [&] {
    for (std::future<Payload>& f : built) {
      if (f.valid()) f.wait();
    }
  };

  // Each encoded month waits for the append cursor, so the lookahead
  // bounds how many payloads are held at once: 2 x threads keeps every
  // worker busy and the median peak RSS at the serial loop's.
  const std::size_t lookahead = 2 * pool.thread_count();
  std::size_t next = 0;
  try {
    for (; next < missing.size(); ++next) {
      while (built.size() < std::min(missing.size(), next + lookahead) &&
             !interrupt::stop_requested()) {
        submit(missing[built.size()]);
      }
      if (next == built.size()) break;  // stopped before this month was submitted
      const Payload payload = built[next].get();
      if (!payload) break;  // stopped before this month started
      writer.add_entry(month_entry(missing[next]), *payload);
    }
  } catch (...) {
    wait_all();
    throw;
  }
  wait_all();
  return next == missing.size();
}

}  // namespace

std::string window_entry(std::size_t w, const char* part) {
  return "window/" + std::to_string(w) + "/" + part;
}

std::string encode_window_meta(const LiveWindowMeta& meta) {
  PayloadWriter w;
  w.u64(meta.window);
  w.i32(meta.month_index);
  w.u32(0);  // reserved
  w.u64(meta.salt);
  w.u64(meta.valid_packets);
  w.u64(meta.discarded_packets);
  w.f64(meta.start_sec);
  w.f64(meta.duration_sec);
  return w.take();
}

LiveWindowMeta decode_window_meta(std::span<const std::byte> bytes) {
  PayloadReader r(bytes);
  LiveWindowMeta meta;
  meta.window = r.u64();
  meta.month_index = r.i32();
  const std::uint32_t reserved = r.u32();
  OBSCORR_REQUIRE(reserved == 0, "archive: malformed window metadata");
  meta.salt = r.u64();
  meta.valid_packets = r.u64();
  meta.discarded_packets = r.u64();
  meta.start_sec = r.f64();
  meta.duration_sec = r.f64();
  OBSCORR_REQUIRE(r.done(), "archive: trailing bytes after window metadata");
  OBSCORR_REQUIRE(meta.month_index >= 0, "archive: negative window month index");
  return meta;
}

std::string encode_source_vector(const gbl::SparseVec& v) { return encode_sources(v); }

std::string encode_scenario(const netgen::Scenario& s) {
  PayloadWriter w;
  w.u32(kScenarioVersion);

  const netgen::PopulationConfig& p = s.population;
  w.u64(p.population);
  w.f64(p.zm_alpha);
  w.f64(p.zm_delta);
  w.u64(p.log2_nv);
  w.f64(p.rebirth_prob);
  w.f64(p.persist_shape_stable);
  w.f64(p.persist_shape_churny);
  w.f64(p.hybrid_share);
  w.u64(p.hybrid_sources);
  w.f64(p.hybrid_alpha);
  w.f64(p.hybrid_delta);
  w.f64(p.botnet_fraction);
  w.u64(p.botnet_block_size);
  w.f64(p.botnet_block_persist);
  w.f64(p.botnet_block_rebirth);
  w.u64(p.seed);

  const netgen::TrafficConfig& t = s.traffic;
  put_prefix(w, t.darkspace);
  put_prefix(w, t.legit_prefix);
  w.f64(t.legit_fraction);
  w.f64(t.uniform_weight);
  w.f64(t.sequential_weight);
  w.f64(t.subnet_weight);

  w.u32(static_cast<std::uint32_t>(s.visibility.kind));
  w.i32(s.visibility.log2_nv);
  w.f64(s.visibility.coverage_half);

  w.u64(s.months.size());
  for (const netgen::GreyNoiseMonthSpec& m : s.months) {
    put_year_month(w, m.month);
    w.f64(m.coverage);
    w.f64(m.ephemeral_factor);
  }
  w.u64(s.snapshots.size());
  for (const netgen::CaidaSnapshotSpec& snap : s.snapshots) {
    put_year_month(w, snap.month);
    w.str(snap.start_label);
    w.f64(snap.paper_duration_sec);
    w.u64(snap.salt);
  }
  return w.take();
}

netgen::Scenario decode_scenario(std::span<const std::byte> bytes) {
  PayloadReader r(bytes);
  const std::uint32_t version = r.u32();
  OBSCORR_REQUIRE(version == kScenarioVersion, "archive: unsupported scenario version");

  netgen::Scenario s;
  netgen::PopulationConfig& p = s.population;
  p.population = static_cast<std::size_t>(r.u64());
  p.zm_alpha = r.f64();
  p.zm_delta = r.f64();
  p.log2_nv = r.u64();
  p.rebirth_prob = r.f64();
  p.persist_shape_stable = r.f64();
  p.persist_shape_churny = r.f64();
  p.hybrid_share = r.f64();
  p.hybrid_sources = static_cast<std::size_t>(r.u64());
  p.hybrid_alpha = r.f64();
  p.hybrid_delta = r.f64();
  p.botnet_fraction = r.f64();
  p.botnet_block_size = static_cast<std::size_t>(r.u64());
  p.botnet_block_persist = r.f64();
  p.botnet_block_rebirth = r.f64();
  p.seed = r.u64();

  netgen::TrafficConfig& t = s.traffic;
  t.darkspace = get_prefix(r);
  t.legit_prefix = get_prefix(r);
  t.legit_fraction = r.f64();
  t.uniform_weight = r.f64();
  t.sequential_weight = r.f64();
  t.subnet_weight = r.f64();

  const std::uint32_t kind = r.u32();
  OBSCORR_REQUIRE(kind <= static_cast<std::uint32_t>(netgen::VisibilityKind::kCoverage),
                  "archive: unknown visibility kind");
  s.visibility.kind = static_cast<netgen::VisibilityKind>(kind);
  s.visibility.log2_nv = r.i32();
  s.visibility.coverage_half = r.f64();

  const std::uint64_t month_count = r.u64();
  OBSCORR_REQUIRE(month_count <= 100000, "archive: implausible month count");
  for (std::uint64_t m = 0; m < month_count; ++m) {
    netgen::GreyNoiseMonthSpec spec;
    spec.month = get_year_month(r);
    spec.coverage = r.f64();
    spec.ephemeral_factor = r.f64();
    s.months.push_back(spec);
  }
  const std::uint64_t snap_count = r.u64();
  OBSCORR_REQUIRE(snap_count <= 100000, "archive: implausible snapshot count");
  for (std::uint64_t k = 0; k < snap_count; ++k) {
    netgen::CaidaSnapshotSpec spec;
    spec.month = get_year_month(r);
    spec.start_label = r.str();
    spec.paper_duration_sec = r.f64();
    spec.salt = r.u64();
    s.snapshots.push_back(spec);
  }
  OBSCORR_REQUIRE(r.done(), "archive: trailing bytes after scenario");
  return s;
}

std::uint64_t scenario_fingerprint(const netgen::Scenario& scenario) {
  return fnv1a64(encode_scenario(scenario));
}

ArchiveStats archive_study(const netgen::Scenario& scenario, const std::string& dir,
                           ThreadPool& pool) {
  OBSCORR_REQUIRE(!scenario.snapshots.empty(), "scenario needs at least one snapshot");
  const std::string encoded = encode_scenario(scenario);
  const std::uint64_t hash = fnv1a64(encoded);

  ArchiveStats stats;
  stats.snapshots_total = scenario.snapshots.size();
  stats.months_total = scenario.months.size();

  // A completed archive is immutable: same scenario is a no-op, a
  // different one is refused rather than silently overwritten.
  if (std::filesystem::exists(std::filesystem::path(dir) / kManifestName)) {
    const ArchiveReader existing(dir);
    OBSCORR_REQUIRE(existing.scenario_hash() == hash,
                    "archive_study: " + dir + " already holds a completed archive of a "
                    "different scenario");
    stats.already_complete = true;
    stats.snapshots_reused = stats.snapshots_total;
    stats.months_reused = stats.months_total;
    return stats;
  }

  ArchiveWriter writer(dir);
  if (writer.has_entry("scenario")) {
    const std::vector<std::byte> existing = writer.read_entry("scenario");
    const bool same = existing.size() == encoded.size() &&
                      std::memcmp(existing.data(), encoded.data(), encoded.size()) == 0;
    if (!same) writer.reset();  // stale partial run of another scenario
  }
  if (!writer.has_entry("scenario")) writer.add_entry("scenario", encoded);

  // The population is only built when at least one snapshot or month is
  // actually missing; a fully recovered log resumes straight to commit.
  std::unique_ptr<netgen::Population> population;
  const auto world = [&]() -> const netgen::Population& {
    if (!population) population = std::make_unique<netgen::Population>(scenario.population);
    return *population;
  };

  // SIGINT/SIGTERM checkpoints sit between entries: every complete
  // snapshot/month is already flushed to the append-only log when the
  // flag is observed, so an interrupted run leaves a resumable partial
  // archive (no manifest) and the same command picks up where it
  // stopped. No entry is ever half-written. Months are built as pool
  // tasks but appended in index order, one entry each, so the log, the
  // resume granularity and the manifest are those of a serial run.
  for (std::size_t k = 0; k < scenario.snapshots.size(); ++k) {
    if (snapshot_complete(writer, k)) {
      ++stats.snapshots_reused;
      continue;
    }
    if (interrupt::stop_requested()) {
      stats.interrupted = true;
      return stats;
    }
    add_snapshot_entries(writer, k, core::run_snapshot(scenario, world(), k, pool));
  }
  std::vector<std::size_t> missing_months;
  for (std::size_t m = 0; m < scenario.months.size(); ++m) {
    if (writer.has_entry(month_entry(m))) {
      ++stats.months_reused;
    } else {
      missing_months.push_back(m);
    }
  }
  if (!missing_months.empty() &&
      (interrupt::stop_requested() ||
       !append_months(writer, scenario, world(), missing_months, pool))) {
    stats.interrupted = true;
    return stats;
  }
  writer.finalize(hash);
  return stats;
}

void write_study(const core::StudyData& study, const std::string& dir) {
  ArchiveWriter writer(dir);
  writer.reset();
  writer.add_entry("scenario", encode_scenario(study.scenario));
  for (std::size_t k = 0; k < study.snapshots.size(); ++k) {
    add_snapshot_entries(writer, k, study.snapshots[k]);
  }
  for (std::size_t m = 0; m < study.months.size(); ++m) {
    writer.add_entry(month_entry(m), encode_month(study.months[m]));
  }
  writer.finalize(scenario_fingerprint(study.scenario));
}

StudyReader::StudyReader(const std::string& dir) : reader_(dir) {
  OBSCORR_REQUIRE(reader_.has("scenario"), "archive: missing scenario entry");
  scenario_ = decode_scenario(reader_.payload("scenario").bytes);
  OBSCORR_REQUIRE(scenario_fingerprint(scenario_) == reader_.scenario_hash(),
                  "archive: manifest scenario hash does not match the scenario entry");
  for (const std::string& name : expected_entries(scenario_)) {
    OBSCORR_REQUIRE(reader_.has(name), "archive: missing entry " + name);
  }
  window_count_ = count_windows(0);
}

std::size_t StudyReader::count_windows(std::size_t from) const {
  std::size_t w = from;
  while (reader_.has(window_entry(w, "meta")) && reader_.has(window_entry(w, "matrix")) &&
         reader_.has(window_entry(w, "sources"))) {
    ++w;
  }
  return w;
}

std::size_t StudyReader::refresh() {
  reader_.refresh();
  const std::size_t before = window_count_;
  window_count_ = count_windows(window_count_);
  return window_count_ - before;
}

LiveWindowMeta StudyReader::window_meta(std::size_t w) const {
  OBSCORR_REQUIRE(w < window_count_, "archive: window index out of range");
  return decode_window_meta(reader_.payload(window_entry(w, "meta")).bytes);
}

gbl::MatrixView StudyReader::window_matrix(std::size_t w) const {
  OBSCORR_REQUIRE(w < window_count_, "archive: window index out of range");
  const PayloadView p = reader_.payload(window_entry(w, "matrix"));
  return gbl::MatrixView::from_bytes(p.bytes, p.page);
}

StudyReader::SourcesRef StudyReader::window_sources(std::size_t w) const {
  OBSCORR_REQUIRE(w < window_count_, "archive: window index out of range");
  const PayloadView p = reader_.payload(window_entry(w, "sources"));
  const SourcesView v = decode_sources(p.bytes);
  return {v.ids, v.counts, p.page};
}

gbl::SparseVec StudyReader::window_source_packets(std::size_t w) const {
  const SourcesRef v = window_sources(w);
  return gbl::SparseVec(std::vector<gbl::Index>(v.ids.begin(), v.ids.end()),
                        std::vector<gbl::Value>(v.counts.begin(), v.counts.end()));
}

gbl::MatrixView StudyReader::matrix(std::size_t k) const {
  OBSCORR_REQUIRE(k < snapshot_count(), "archive: snapshot index out of range");
  const PayloadView p = reader_.payload(snapshot_entry(k, "matrix"));
  return gbl::MatrixView::from_bytes(p.bytes, p.page);
}

StudyReader::SourcesRef StudyReader::sources(std::size_t k) const {
  OBSCORR_REQUIRE(k < snapshot_count(), "archive: snapshot index out of range");
  const PayloadView p = reader_.payload(snapshot_entry(k, "sources"));
  const SourcesView v = decode_sources(p.bytes);
  return {v.ids, v.counts, p.page};
}

gbl::SparseVec StudyReader::source_packets(std::size_t k) const {
  const SourcesRef v = sources(k);
  return gbl::SparseVec(std::vector<gbl::Index>(v.ids.begin(), v.ids.end()),
                        std::vector<gbl::Value>(v.counts.begin(), v.counts.end()));
}

core::SnapshotData StudyReader::snapshot_meta(std::size_t k) const {
  OBSCORR_REQUIRE(k < snapshot_count(), "archive: snapshot index out of range");
  core::SnapshotData snap;
  decode_snapshot_meta(reader_.payload(snapshot_entry(k, "meta")).bytes, snap);
  return snap;
}

core::SnapshotData StudyReader::snapshot(std::size_t k, bool with_matrix) const {
  core::SnapshotData snap = snapshot_meta(k);
  if (with_matrix) snap.matrix = matrix(k).materialize();
  snap.source_packets = source_packets(k);
  snap.sources = decode_assoc(reader_.payload(snapshot_entry(k, "assoc")).bytes);
  return snap;
}

honeyfarm::MonthlyObservation StudyReader::month(std::size_t m) const {
  OBSCORR_REQUIRE(m < month_count(), "archive: month index out of range");
  return decode_month(reader_.payload(month_entry(m)).bytes);
}

honeyfarm::MonthView StudyReader::month_view(std::size_t m) const {
  OBSCORR_REQUIRE(m < month_count(), "archive: month index out of range");
  const std::string name = month_entry(m);
  PayloadView p = reader_.payload(name);
  PayloadReader r(p.bytes);
  const YearMonth month = decode_month_header(r).month;
  try {
    return {month,
            d4m::AssocView::from_ip_bytes(p.bytes.subspan(r.position()), std::move(p.page))};
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("archive: entry " + name + ": " + e.what());
  }
}

std::vector<honeyfarm::MonthlyObservation> StudyReader::months() const {
  std::vector<honeyfarm::MonthlyObservation> all;
  all.reserve(month_count());
  for (std::size_t m = 0; m < month_count(); ++m) all.push_back(month(m));
  return all;
}

core::StudyData StudyReader::study() const {
  core::StudyData study;
  study.scenario = scenario_;
  study.population = std::make_shared<netgen::Population>(scenario_.population);
  study.snapshots.reserve(snapshot_count());
  for (std::size_t k = 0; k < snapshot_count(); ++k) study.snapshots.push_back(snapshot(k));
  study.months = months();
  return study;
}

core::StudyData StudyReader::analysis_study(ThreadPool& pool) const {
  core::StudyData study;
  study.scenario = scenario_;
  study.snapshots.resize(snapshot_count());
  study.months.resize(month_count());
  // Entries in the serial read order: snapshot k's metadata and source
  // reduction (2k), its assoc array (2k + 1), then month m (2K + m).
  const std::size_t snapshot_entries = 2 * snapshot_count();
  const std::size_t entries = snapshot_entries + month_count();
  const obs::Span span("study.load", [&] { return std::to_string(entries); });
  const auto load = [&](std::size_t e) {
    if (e >= snapshot_entries) {
      study.months[e - snapshot_entries] = month(e - snapshot_entries);
      return;
    }
    const std::size_t k = e / 2;
    core::SnapshotData& snap = study.snapshots[k];
    if (e % 2 == 1) {
      snap.sources = decode_assoc(reader_.payload(snapshot_entry(k, "assoc")).bytes);
      return;
    }
    decode_snapshot_meta(reader_.payload(snapshot_entry(k, "meta")).bytes, snap);
    snap.source_packets = source_packets(k);
  };
  // Entries differ in size by an order of magnitude, so workers claim
  // them one at a time, the largest stored entry first; each lands in
  // its own slot (two entries fill disjoint members of one snapshot). A
  // failed entry does not stop the others, and the first failure in read
  // order is the one rethrown.
  const auto stored = [&](const std::string& name) -> std::uint64_t {
    return reader_.stored_payload(name).size();
  };
  std::vector<std::uint64_t> costs(entries);
  for (std::size_t k = 0; k < snapshot_count(); ++k) {
    costs[2 * k] = stored(snapshot_entry(k, "meta")) + stored(snapshot_entry(k, "sources"));
    costs[2 * k + 1] = stored(snapshot_entry(k, "assoc"));
  }
  for (std::size_t m = 0; m < month_count(); ++m) {
    costs[snapshot_entries + m] = stored(month_entry(m));
  }
  parallel_claim(pool, costs, load);
  return study;
}

core::StudyData read_study(const std::string& dir) { return StudyReader(dir).study(); }

}  // namespace obscorr::archive
