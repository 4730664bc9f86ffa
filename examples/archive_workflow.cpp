/// Archive workflow: the storage side of the observatory. The real
/// telescope records packet captures, aggregates them into anonymized
/// GraphBLAS traffic matrices, and archives those at a supercomputing
/// center for later analysis. This example runs that loop end to end:
///
///   1. record a capture window to a packet-trace file,
///   2. replay the trace through the telescope into an anonymized
///      hypersparse matrix,
///   3. write the matrix to a file in the archive's matrix layout (the
///      bytes of a study archive's snapshot entry),
///   4. read and validate that file later, reduce it in place, and check
///      it holds exactly the captured matrix,
///
/// then the campaign scale (the study archive, `src/archive`):
///
///   5. persist a whole multi-month study with `archive_study`,
///   6. show resume: rerunning over a complete archive is a no-op,
///   7. query it zero-copy with `StudyReader` and check the materialized
///      study matches an in-memory rerun bit for bit.
///
///   $ ./archive_workflow [dir]   (default: current directory)

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "archive/matrix_file.hpp"
#include "archive/study_archive.hpp"
#include "common/table.hpp"
#include "core/study.hpp"
#include "gbl/quantities.hpp"
#include "netgen/scenario.hpp"
#include "netgen/traffic.hpp"
#include "stats/zipf.hpp"
#include "stats/histogram.hpp"
#include "telescope/telescope.hpp"
#include "telescope/trace.hpp"

int main(int argc, char** argv) {
  using namespace obscorr;
  const std::string dir = argc > 1 ? argv[1] : ".";
  const std::string trace_path = dir + "/window0.trc";
  const std::string matrix_path = dir + "/window0.gbl";

  const auto scenario = netgen::Scenario::paper(/*log2_nv=*/18, /*seed=*/11);
  ThreadPool pool;
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);

  // 1. Record the raw capture (the only artifact holding real addresses;
  //    in production it stays inside the sensor enclave).
  const std::uint64_t recorded =
      telescope::record_trace(trace_path, [&](const PacketBatchSink& sink) {
        generator.stream_window_batched(0, scenario.nv(), 1, sink);
      });
  std::printf("recorded %llu packets -> %s\n", static_cast<unsigned long long>(recorded),
              trace_path.c_str());

  // 2. Replay through the instrument: filter, anonymize, aggregate.
  telescope::Telescope scope(core::scope_config_for(scenario), pool);
  telescope::replay_trace(trace_path,
                          [&](std::span<const Packet> batch) { scope.capture_block(batch); });
  const gbl::DcsrMatrix matrix = scope.finish_window();
  std::printf("captured %llu valid packets into a %zu-entry hypersparse matrix (%.1f KiB), "
              "discarded %llu\n",
              static_cast<unsigned long long>(matrix.reduce_sum()), matrix.nnz(),
              static_cast<double>(matrix.memory_bytes()) / 1024.0,
              static_cast<unsigned long long>(scope.discarded_packets()));

  // 3. Archive the anonymized matrix — this artifact is shareable.
  archive::write_matrix_file(matrix_path, matrix);
  std::printf("archived anonymized matrix -> %s\n\n", matrix_path.c_str());

  // 4. A later analysis session reads the file cold: one copy into an
  //    owned buffer, validated, then reduced as a view.
  const gbl::MatrixView loaded = archive::read_matrix_file(matrix_path);
  const auto q = gbl::aggregate_quantities(loaded);
  const auto fit =
      stats::fit_zipf_mandelbrot(stats::LogHistogram::from_sparse_vec(loaded.reduce_rows()));

  TextTable table("analysis from the archived matrix");
  table.set_header({"quantity", "value"});
  table.add_row({"valid packets", fmt_count(static_cast<std::uint64_t>(q.valid_packets))});
  table.add_row({"unique sources", fmt_count(q.unique_sources)});
  table.add_row({"unique links", fmt_count(q.unique_links)});
  table.add_row({"max source packets", fmt_double(q.max_source_packets, 0)});
  table.add_row({"ZM alpha", fmt_double(fit.model.alpha, 3)});
  table.add_row({"ZM delta", fmt_double(fit.model.delta, 2)});
  table.print(std::cout);

  const bool round_trip = loaded.materialize() == matrix;
  std::printf("\narchive round-trip exact: %s\n", round_trip ? "yes" : "NO (bug!)");
  std::remove(trace_path.c_str());
  std::remove(matrix_path.c_str());
  if (!round_trip) return 1;

  // 5. The campaign scale: persist a whole study. The entry log is
  //    append-only and resumable — kill this mid-run and the next
  //    invocation reuses every finished snapshot/month.
  const std::string study_dir = dir + "/study_nv12";
  const auto study_scenario = netgen::Scenario::paper(/*log2_nv=*/12, /*seed=*/11);
  const auto stats = archive::archive_study(study_scenario, study_dir, pool);
  std::printf("\narchived study -> %s (%zu snapshots, %zu months)\n", study_dir.c_str(),
              stats.snapshots_total, stats.months_total);

  // 6. A complete archive is a no-op to re-archive.
  const auto again = archive::archive_study(study_scenario, study_dir, pool);
  std::printf("re-archive is a no-op: %s\n", again.already_complete ? "yes" : "NO (bug!)");

  // 7. Query it. StudyReader serves matrices as views over the mmap —
  //    no nnz-sized copies — and `study()` materializes the whole thing
  //    bit-identical to an in-memory `core::run_study`.
  const archive::StudyReader reader(study_dir);
  const auto view = reader.matrix(0);
  std::printf("snapshot 0 zero-copy view: %zu nonempty rows, %zu nnz, served by %s\n",
              view.nonempty_rows(), view.nnz(), reader.mapped() ? "mmap" : "heap fallback");
  const core::StudyData archived = reader.study();
  const core::StudyData fresh = core::run_study(study_scenario, pool);
  const bool exact = archived.snapshots.size() == fresh.snapshots.size() &&
                     archived.months.size() == fresh.months.size() &&
                     archived.snapshots[0].source_packets == fresh.snapshots[0].source_packets &&
                     archived.months[0].sources == fresh.months[0].sources;
  std::printf("archived study matches in-memory rerun: %s\n", exact ? "yes" : "NO (bug!)");
  std::filesystem::remove_all(study_dir);
  return exact && again.already_complete ? 0 : 1;
}
