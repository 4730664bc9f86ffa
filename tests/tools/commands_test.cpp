/// End-to-end tests of the `obscorr` CLI subcommands through the public
/// command functions, exercising generate -> capture -> quantities ->
/// degrees as a chained workflow plus lookup/scaling/usage behaviour, and
/// one table of queries run through both fronts — the CLI with --from and
/// the daemon's query engine — that must answer and fail identically.

#include "commands.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "../d4m/assoc_oracle.hpp"
#include "archive/matrix_file.hpp"
#include "archive/page_cache.hpp"
#include "archive/study_archive.hpp"
#include "common/interrupt.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "gbl/matrix_view.hpp"
#include "netgen/population.hpp"
#include "netgen/scenario.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "svc/ingest.hpp"
#include "svc/json.hpp"
#include "svc/protocol.hpp"
#include "svc/queries.hpp"
#include "telescope/telescope.hpp"
#include "telescope/trace.hpp"

namespace obscorr::tools {
namespace {

std::string temp(const std::string& name) { return ::testing::TempDir() + "/" + name; }

TEST(CliToolTest, HelpAndUnknownCommand) {
  std::ostringstream out;
  EXPECT_EQ(run({"help"}, out), 0);
  EXPECT_NE(out.str().find("usage: obscorr"), std::string::npos);
  std::ostringstream err;
  EXPECT_EQ(run({"frobnicate"}, err), 2);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);
  std::ostringstream empty;
  EXPECT_EQ(run({}, empty), 2);
}

TEST(CliToolTest, MissingRequiredOptionIsUsageError) {
  std::ostringstream out;
  EXPECT_EQ(run({"generate"}, out), 2);
  EXPECT_NE(out.str().find("--out"), std::string::npos);
  std::ostringstream out2;
  EXPECT_EQ(run({"quantities"}, out2), 2);
}

TEST(CliToolTest, UnknownOptionRejected) {
  std::ostringstream out;
  EXPECT_EQ(run({"generate", "--out", temp("x.trc"), "--banana", "3"}, out), 2);
  EXPECT_NE(out.str().find("banana"), std::string::npos);
}

TEST(CliToolTest, GenerateCaptureQuantitiesDegreesChain) {
  const std::string trace = temp("cli_chain.trc");
  const std::string matrix = temp("cli_chain.gbl");

  std::ostringstream gen;
  ASSERT_EQ(run({"generate", "--out", trace, "--log2-nv", "14", "--seed", "5"}, gen), 0);
  EXPECT_NE(gen.str().find("16,384 valid"), std::string::npos);

  std::ostringstream cap;
  ASSERT_EQ(run({"capture", "--trace", trace, "--out", matrix, "--log2-nv", "14", "--seed", "5"},
                cap),
            0);
  EXPECT_NE(cap.str().find("captured 16,384 valid"), std::string::npos);

  std::ostringstream quant;
  ASSERT_EQ(run({"quantities", "--matrix", matrix}, quant), 0);
  EXPECT_NE(quant.str().find("valid packets"), std::string::npos);
  EXPECT_NE(quant.str().find("16,384"), std::string::npos);

  std::ostringstream deg;
  ASSERT_EQ(run({"degrees", "--matrix", matrix}, deg), 0);
  EXPECT_NE(deg.str().find("Zipf-Mandelbrot"), std::string::npos);
  EXPECT_NE(deg.str().find("power-law MLE"), std::string::npos);

  std::remove(trace.c_str());
  std::remove(matrix.c_str());
}

TEST(CliToolTest, CaptureRejectsMissingTrace) {
  std::ostringstream out;
  EXPECT_EQ(run({"capture", "--trace", temp("nope.trc"), "--out", temp("nope.gbl")}, out), 2);
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(CliToolTest, CaptureWritesTheArchiveMatrixLayout) {
  // The file `capture --out` writes holds exactly the bytes an archive's
  // snapshot entry holds for the same window's matrix.
  const std::string trace = temp("cli_layout.trc");
  const std::string matrix_path = temp("cli_layout.gbl");
  std::ostringstream io;
  ASSERT_EQ(run({"generate", "--out", trace, "--log2-nv", "12", "--seed", "5"}, io), 0);
  ASSERT_EQ(run({"capture", "--trace", trace, "--out", matrix_path, "--log2-nv", "12", "--seed",
                 "5", "--threads", "2"},
                io),
            0);

  ThreadPool pool(2);
  telescope::Telescope scope(core::scope_config_for(netgen::Scenario::paper(12, 5)), pool);
  telescope::replay_trace(trace, [&](std::span<const Packet> batch) { scope.capture_block(batch); });
  const gbl::DcsrMatrix window = scope.finish_window();
  ASSERT_GT(window.nnz(), 0u);
  std::string expected;
  gbl::append_matrix_v2(expected, window);
  EXPECT_TRUE(file_bytes(matrix_path) == expected);
  EXPECT_TRUE(archive::read_matrix_file(matrix_path).materialize() == window);
  std::remove(trace.c_str());
  std::remove(matrix_path.c_str());
}

TEST(CliToolTest, MatrixCommandsRejectBadMatrixFiles) {
  // Four files no `--matrix` command may read: one in the retired v1
  // stream layout (unpadded sections behind the magic "OBSCGBL" + '1'),
  // an empty one, a valid one cut short by a byte, and one that does not
  // exist. Each is a usage error on stderr alone.
  const std::string v1 = temp("bad_v1.gbl");
  const std::string empty = temp("bad_empty.gbl");
  const std::string short_by_one = temp("bad_short.gbl");
  const std::string missing = temp("bad_missing.gbl");
  {
    std::string bytes = std::string("OBSCGBL") + '1';
    const std::uint64_t counts[] = {1, 1};  // one row, one entry
    const std::uint32_t row = 7, col = 3;
    const std::uint64_t row_ptr[] = {0, 1};
    const double val = 1.0;
    bytes.append(reinterpret_cast<const char*>(counts), sizeof counts);
    bytes.append(reinterpret_cast<const char*>(&row), sizeof row);
    bytes.append(reinterpret_cast<const char*>(row_ptr), sizeof row_ptr);
    bytes.append(reinterpret_cast<const char*>(&col), sizeof col);
    bytes.append(reinterpret_cast<const char*>(&val), sizeof val);
    std::ofstream(v1, std::ios::binary) << bytes;
  }
  std::ofstream(empty, std::ios::binary).flush();
  archive::write_matrix_file(short_by_one,
                             gbl::DcsrMatrix::from_tuples({{1, 2, 3.0}, {4, 5, 6.0}}));
  std::filesystem::resize_file(short_by_one, std::filesystem::file_size(short_by_one) - 1);
  std::filesystem::remove(missing);

  for (const char* command : {"quantities", "degrees", "prefixes"}) {
    for (const std::string& file : {v1, empty, short_by_one, missing}) {
      std::ostringstream out, err;
      EXPECT_EQ(run({command, "--matrix", file}, out, err), 2) << command << ' ' << file;
      EXPECT_EQ(out.str(), "") << command << ' ' << file;
      EXPECT_EQ(err.str().rfind("error: ", 0), 0u) << command << ' ' << file << ": " << err.str();
    }
    std::ostringstream out, err;
    ASSERT_EQ(run({command, "--matrix", v1}, out, err), 2);
    EXPECT_EQ(err.str(), "error: matrix view: bad magic\n") << command;
  }
  for (const std::string& path : {v1, empty, short_by_one}) std::remove(path.c_str());
}

TEST(CliToolTest, StudyPrintsCampaignSummary) {
  std::ostringstream out;
  ASSERT_EQ(run({"study", "--log2-nv", "14", "--seed", "5"}, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("campaign inventory"), std::string::npos);
  EXPECT_NE(text.find("2020-06-17-12:00:00"), std::string::npos);
  EXPECT_NE(text.find("same-month overlap"), std::string::npos);
  EXPECT_NE(text.find("modified Cauchy"), std::string::npos);
}

TEST(CliToolTest, ThreadsFlagIsAcceptedAndNeverChangesOutput) {
  // --threads is plumbing, not physics: the full study report must come
  // out byte-identical whatever worker count the user asks for.
  std::ostringstream serial;
  ASSERT_EQ(run({"study", "--log2-nv", "14", "--seed", "5", "--threads", "1"}, serial), 0);
  std::ostringstream pooled;
  ASSERT_EQ(run({"study", "--log2-nv", "14", "--seed", "5", "--threads", "3"}, pooled), 0);
  EXPECT_EQ(serial.str(), pooled.str());
  EXPECT_NE(serial.str().find("campaign inventory"), std::string::npos);

  std::ostringstream bad;
  EXPECT_EQ(run({"study", "--log2-nv", "14", "--threads", "zero"}, bad), 2);
}

TEST(CliToolTest, LookupFindsAPersistentSourceAndMissesAStranger) {
  // The rank-0 source is nearly always catalogued; grab its IP from the
  // deterministic population and look it up.
  const auto scenario = netgen::Scenario::paper(14, 5);
  const netgen::Population population(scenario.population);
  const std::string bright_ip = population.source(0).ip.to_string();

  std::ostringstream hit;
  ASSERT_EQ(run({"lookup", "--ip", bright_ip, "--log2-nv", "14", "--seed", "5"}, hit), 0);
  EXPECT_NE(hit.str().find("seen in"), std::string::npos);

  std::ostringstream miss;
  ASSERT_EQ(run({"lookup", "--ip", "203.0.113.7", "--log2-nv", "14", "--seed", "5"}, miss), 0);
  EXPECT_NE(miss.str().find("never observed"), std::string::npos);

  std::ostringstream bad;
  EXPECT_EQ(run({"lookup", "--ip", "not-an-ip", "--log2-nv", "14"}, bad), 2);
}

TEST(CliToolTest, FreshLookupIsTheSameAtEveryThreadCount) {
  // A fresh lookup builds its months on the pool; which worker builds
  // which month must not move a byte of the answer.
  const auto scenario = netgen::Scenario::paper(14, 5);
  const netgen::Population population(scenario.population);
  const std::string bright_ip = population.source(0).ip.to_string();
  const auto lookup = [&](const std::string& threads) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run({"lookup", "--ip", bright_ip, "--log2-nv", "14", "--seed", "5", "--threads",
                   threads},
                  out, err),
              0);
    return out.str();
  };
  const std::string serial = lookup("1");
  EXPECT_NE(serial.find("seen in"), std::string::npos);
  EXPECT_EQ(lookup("4"), serial);
}

TEST(CliToolTest, ReportWritesAllArtifacts) {
  const std::string dir = ::testing::TempDir();
  std::ostringstream out;
  ASSERT_EQ(run({"report", "--out", dir, "--log2-nv", "14", "--seed", "5"}, out), 0);
  for (const char* name :
       {"table1_inventory.csv", "fig3_degree_distribution.csv", "fig4_peak_correlation.csv",
        "fig5_fig6_temporal_curves.csv", "fig7_fig8_fit_parameters.csv", "REPORT.md"}) {
    std::ifstream file(dir + "/" + name);
    EXPECT_TRUE(file.is_open()) << name;
    std::string first_line;
    std::getline(file, first_line);
    EXPECT_FALSE(first_line.empty()) << name;
    std::remove((dir + "/" + name).c_str());
  }
  std::ostringstream err;
  EXPECT_EQ(run({"report", "--out", dir + "/no/such/dir"}, err), 2);
}

TEST(CliToolTest, PrefixesAnalyzesArchivedMatrix) {
  const std::string trace = temp("cli_prefix.trc");
  const std::string matrix = temp("cli_prefix.gbl");
  std::ostringstream io;
  ASSERT_EQ(run({"generate", "--out", trace, "--log2-nv", "14", "--seed", "5"}, io), 0);
  ASSERT_EQ(run({"capture", "--trace", trace, "--out", matrix, "--log2-nv", "14", "--seed", "5"},
                io),
            0);
  std::ostringstream out;
  ASSERT_EQ(run({"prefixes", "--matrix", matrix, "--length", "12"}, out), 0);
  EXPECT_NE(out.str().find("top-10 packet share"), std::string::npos);
  EXPECT_NE(out.str().find("Gini"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(matrix.c_str());
}

TEST(CliToolTest, OutOfRangeScaleIsUsageError) {
  std::ostringstream out;
  EXPECT_EQ(run({"study", "--log2-nv", "5"}, out), 2);
  EXPECT_NE(out.str().find("error:"), std::string::npos);
  std::ostringstream out2;
  EXPECT_EQ(run({"lookup", "--ip", "1.2.3.4", "--log2-nv", "99"}, out2), 2);
}

TEST(CliToolTest, NonNumericOptionIsUsageError) {
  std::ostringstream out;
  EXPECT_EQ(run({"study", "--log2-nv", "abc"}, out), 2);
}

TEST(CliToolTest, ScalingPrintsExponent) {
  std::ostringstream out;
  ASSERT_EQ(run({"scaling", "--log2-nv", "13", "--seed", "5"}, out), 0);
  EXPECT_NE(out.str().find("fitted source exponent"), std::string::npos);
}

TEST(CliToolTest, ArchiveThenQueryFromMatchesRecompute) {
  const std::string dir = temp("cli_archive");
  std::filesystem::remove_all(dir);

  std::ostringstream arch;
  ASSERT_EQ(run({"archive", "--out", dir, "--log2-nv", "12", "--seed", "5"}, arch), 0);
  EXPECT_NE(arch.str().find("archived 5 snapshots"), std::string::npos);
  EXPECT_NE(arch.str().find("15 months"), std::string::npos);
  EXPECT_NE(arch.str().find("query it with --from"), std::string::npos);

  // Re-archiving a completed campaign is a cheap no-op.
  std::ostringstream again;
  ASSERT_EQ(run({"archive", "--out", dir, "--log2-nv", "12", "--seed", "5"}, again), 0);
  EXPECT_NE(again.str().find("archive already complete"), std::string::npos);

  // The archived query path must print exactly what recomputing prints.
  std::ostringstream fresh, from;
  ASSERT_EQ(run({"study", "--log2-nv", "12", "--seed", "5"}, fresh), 0);
  ASSERT_EQ(run({"study", "--from", dir}, from), 0);
  EXPECT_EQ(from.str(), fresh.str());

  std::ostringstream deg;
  ASSERT_EQ(run({"degrees", "--from", dir, "--snapshot", "1"}, deg), 0);
  EXPECT_NE(deg.str().find("Zipf-Mandelbrot"), std::string::npos);

  std::ostringstream pre;
  ASSERT_EQ(run({"prefixes", "--from", dir, "--length", "12"}, pre), 0);
  EXPECT_NE(pre.str().find("top-10 packet share"), std::string::npos);

  std::ostringstream look;
  ASSERT_EQ(run({"lookup", "--ip", "203.0.113.7", "--from", dir}, look), 0);
  EXPECT_NE(look.str().find("never observed"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, ReportFromArchiveWritesSameArtifacts) {
  const std::string dir = temp("cli_report_archive");
  const std::string fresh_dir = temp("cli_report_fresh");
  const std::string from_dir = temp("cli_report_from");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(fresh_dir);
  std::filesystem::create_directories(from_dir);

  std::ostringstream io;
  ASSERT_EQ(run({"archive", "--out", dir, "--log2-nv", "12", "--seed", "5"}, io), 0);
  ASSERT_EQ(run({"report", "--out", fresh_dir, "--log2-nv", "12", "--seed", "5"}, io), 0);
  ASSERT_EQ(run({"report", "--out", from_dir, "--from", dir}, io), 0);

  for (const char* name :
       {"table1_inventory.csv", "fig3_degree_distribution.csv", "fig4_peak_correlation.csv",
        "fig5_fig6_temporal_curves.csv", "fig7_fig8_fit_parameters.csv", "REPORT.md"}) {
    std::ifstream a(fresh_dir + "/" + name), b(from_dir + "/" + name);
    ASSERT_TRUE(a.is_open() && b.is_open()) << name;
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sb.str(), sa.str()) << name << " differs between --from and recompute";
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(fresh_dir);
  std::filesystem::remove_all(from_dir);
}

/// Every file of `dir` by name, with its bytes.
std::vector<std::pair<std::string, std::string>> directory_bytes(const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files.emplace_back(entry.path().filename().string(),
                       std::string(std::istreambuf_iterator<char>(in), {}));
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CliToolTest, ReportFromArchiveIsTheSameAtEveryThreadCount) {
  // The load decodes entries as pool tasks and fit_grid merges and fits
  // on the same pool: the written report must not depend on its size.
  const std::string golden = OBSCORR_TEST_DATA_DIR "/golden_study";
  std::vector<std::vector<std::pair<std::string, std::string>>> reports;
  for (const char* threads : {"1", "4"}) {
    const std::string out_dir = temp(std::string("cli_report_threads_") + threads);
    std::filesystem::remove_all(out_dir);
    std::filesystem::create_directories(out_dir);
    std::ostringstream out, err;
    ASSERT_EQ(run({"report", "--from", golden, "--out", out_dir, "--threads", threads}, out, err),
              0)
        << err.str();
    reports.push_back(directory_bytes(out_dir));
    std::filesystem::remove_all(out_dir);
  }
  ASSERT_EQ(reports[0].size(), 6u);
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(CliToolTest, ReportFromTwoMonthArchiveIsCleanError) {
  // An archive may hold any month count, and a temporal fit needs three
  // months. The fit's error must reach the user as a usage error at any
  // thread count, not terminate the process from a pool worker.
  const std::string dir = temp("cli_two_month_archive");
  {
    core::StudyData study = archive::read_study(OBSCORR_TEST_DATA_DIR "/golden_study");
    // Keep 2020-06 and 2020-07 with their two snapshots, re-indexed.
    const int first = study.snapshots[0].month_index;
    study.scenario.months = {study.scenario.months[static_cast<std::size_t>(first)],
                             study.scenario.months[static_cast<std::size_t>(first) + 1]};
    study.scenario.snapshots.resize(2);
    study.months = {study.months[static_cast<std::size_t>(first)],
                    study.months[static_cast<std::size_t>(first) + 1]};
    study.snapshots.resize(2);
    for (auto& snap : study.snapshots) snap.month_index -= first;
    archive::write_study(study, dir);
  }
  const std::string out_dir = temp("cli_two_month_report");
  for (const char* threads : {"1", "4"}) {
    std::filesystem::remove_all(out_dir);
    std::filesystem::create_directories(out_dir);
    std::ostringstream out, err;
    EXPECT_EQ(run({"report", "--from", dir, "--out", out_dir, "--threads", threads}, out, err), 2)
        << threads;
    EXPECT_EQ(out.str(), "") << threads;
    const std::string message = "error: temporal fit: need at least 3 observations\n";
    ASSERT_GE(err.str().size(), message.size()) << err.str();
    EXPECT_EQ(err.str().substr(err.str().size() - message.size()), message) << err.str();

    std::ostringstream study_out, study_err;
    EXPECT_EQ(run({"study", "--from", dir, "--threads", threads}, study_out, study_err), 2);
    EXPECT_EQ(study_err.str(), message) << threads;
  }
  std::filesystem::remove_all(out_dir);
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, FromMissingArchiveIsCleanError) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"study", "--from", temp("no_such_archive")},
        std::vector<std::string>{"degrees", "--from", temp("no_such_archive")},
        std::vector<std::string>{"report", "--out", ::testing::TempDir(), "--from",
                                 temp("no_such_archive")}}) {
    std::ostringstream out;
    EXPECT_EQ(run(args, out), 2) << args.front();
    EXPECT_NE(out.str().find("error:"), std::string::npos) << args.front();
  }
}

TEST(CliToolTest, FromCorruptArchiveIsCleanError) {
  const std::string dir = temp("cli_corrupt_archive");
  std::filesystem::remove_all(dir);
  std::ostringstream io;
  ASSERT_EQ(run({"archive", "--out", dir, "--log2-nv", "12", "--seed", "5"}, io), 0);

  // Flip one byte deep inside the entry log.
  const std::string log = dir + "/entries.dat";
  std::fstream f(log, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 1000);
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  std::ostringstream out;
  EXPECT_EQ(run({"study", "--from", dir}, out), 2);
  EXPECT_NE(out.str().find("corrupted"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, MatrixAndFromAreMutuallyExclusive) {
  std::ostringstream both;
  EXPECT_EQ(run({"degrees", "--matrix", temp("m.gbl"), "--from", temp("a")}, both), 2);
  std::ostringstream neither;
  EXPECT_EQ(run({"degrees"}, neither), 2);
  std::ostringstream prefixes_neither;
  EXPECT_EQ(run({"prefixes"}, prefixes_neither), 2);
}

TEST(CliToolTest, TimingFlagsNeverChangeStdout) {
  // The observability contract: telemetry writes to stderr and files
  // only, so stdout must be byte-identical with and without the flags.
  std::ostringstream plain_out, plain_err;
  ASSERT_EQ(run({"study", "--log2-nv", "12", "--seed", "5"}, plain_out, plain_err), 0);

  const std::string metrics = temp("cli_metrics.json");
  const std::string trace = temp("cli_trace.json");
  std::ostringstream telem_out, telem_err;
  ASSERT_EQ(run({"study", "--log2-nv", "12", "--seed", "5", "--timing", "--metrics-out",
                 metrics, "--trace-out", trace},
                telem_out, telem_err),
            0);
  EXPECT_EQ(telem_out.str(), plain_out.str());
  EXPECT_NE(telem_err.str().find("per-window capture rates"), std::string::npos);
  EXPECT_NE(telem_err.str().find("telemetry timing summary"), std::string::npos);

  std::stringstream m, t;
  std::ifstream mf(metrics), tf(trace);
  ASSERT_TRUE(mf.is_open() && tf.is_open());
  m << mf.rdbuf();
  t << tf.rdbuf();
  EXPECT_NE(m.str().find("\"schema\": \"obscorr.metrics.v1\""), std::string::npos);
  EXPECT_NE(m.str().find("netgen.packets_emitted"), std::string::npos);
  EXPECT_NE(t.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(t.str().find("study.snapshot"), std::string::npos);
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

TEST(CliToolTest, DiagnosticsGoToStderrNotStdout) {
  // generate/capture produce files; their progress summaries are
  // diagnostics and must leave stdout empty for machine consumers.
  const std::string trace = temp("cli_split.trc");
  const std::string matrix = temp("cli_split.gbl");
  std::ostringstream gen_out, gen_err;
  ASSERT_EQ(run({"generate", "--out", trace, "--log2-nv", "12", "--seed", "5"}, gen_out,
                gen_err),
            0);
  EXPECT_TRUE(gen_out.str().empty());
  EXPECT_NE(gen_err.str().find("wrote"), std::string::npos);

  std::ostringstream cap_out, cap_err;
  ASSERT_EQ(run({"capture", "--trace", trace, "--out", matrix, "--log2-nv", "12", "--seed",
                 "5"},
                cap_out, cap_err),
            0);
  EXPECT_TRUE(cap_out.str().empty());
  EXPECT_NE(cap_err.str().find("discarded"), std::string::npos);
  EXPECT_NE(cap_err.str().find("deanonymization-dictionary"), std::string::npos);

  // Errors are diagnostics too.
  std::ostringstream bad_out, bad_err;
  EXPECT_EQ(run({"generate"}, bad_out, bad_err), 2);
  EXPECT_TRUE(bad_out.str().empty());
  EXPECT_NE(bad_err.str().find("error:"), std::string::npos);

  std::remove(trace.c_str());
  std::remove(matrix.c_str());
}

TEST(CliToolTest, StudySurfacesTelescopeBookkeeping) {
  std::ostringstream out, err;
  ASSERT_EQ(run({"study", "--log2-nv", "12", "--seed", "5"}, out, err), 0);
  EXPECT_NE(err.str().find("packets discarded"), std::string::npos);
  EXPECT_NE(err.str().find("deanonymized"), std::string::npos);
  EXPECT_EQ(out.str().find("deanonymized"), std::string::npos);
}

TEST(CliToolTest, ArchiveCompactShrinksAndQueriesStayByteIdentical) {
  const std::string dir = temp("cli_compact");
  std::filesystem::remove_all(dir);
  std::ostringstream io;
  ASSERT_EQ(run({"archive", "--out", dir, "--log2-nv", "12", "--seed", "5"}, io), 0);

  std::ostringstream before;
  ASSERT_EQ(run({"study", "--from", dir}, before), 0);
  const auto raw_log = std::filesystem::file_size(dir + "/entries.dat");

  std::ostringstream compact_out, compact_err;
  ASSERT_EQ(run({"archive", "compact", "--dir", dir, "--all", "--stats"}, compact_out,
                compact_err),
            0);
  EXPECT_NE(compact_out.str().find("compression ratio:"), std::string::npos);
  EXPECT_NE(compact_out.str().find("generation: 1"), std::string::npos);
  EXPECT_NE(compact_err.str().find("compacted"), std::string::npos);

  // The generation rolled and the archive got smaller on disk.
  EXPECT_FALSE(std::filesystem::exists(dir + "/entries.dat"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/entries.1.dat"));
  EXPECT_LT(std::filesystem::file_size(dir + "/entries.1.dat"), raw_log);

  // Every query path prints the exact pre-compaction bytes: with the
  // default cache, with an explicit tiny budget, and with caching off.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"study", "--from", dir},
        std::vector<std::string>{"study", "--from", dir, "--cache-bytes", "4096"},
        std::vector<std::string>{"study", "--from", dir, "--cache-bytes", "0"}}) {
    std::ostringstream after;
    ASSERT_EQ(run(args, after), 0);
    EXPECT_EQ(after.str(), before.str());
  }
  // Restore auto resolution for the rest of the suite.
  archive::set_cache_bytes(std::nullopt);

  std::ostringstream deg;
  ASSERT_EQ(run({"degrees", "--from", dir, "--snapshot", "1"}, deg), 0);
  EXPECT_NE(deg.str().find("Zipf-Mandelbrot"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, ArchiveCompactTimingShowsOneEncodePerCompressedEntry) {
  // Compaction encodes on the --threads pool, one `archive.encode` span
  // per entry it compresses, under one `archive.compact` and one
  // `archive.open`.
  const std::string dir = temp("cli_compact_timing." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::copy(OBSCORR_TEST_DATA_DIR "/golden_study", dir);
  std::ostringstream out, err;
  ASSERT_EQ(run({"archive", "compact", "--dir", dir, "--all", "--stats", "--timing", "--threads",
                 "4"},
                out, err),
            0);
  const std::string stats = out.str();
  const std::size_t open = stats.find(" (");
  const std::size_t close = stats.find(" compressed)");
  ASSERT_TRUE(open != std::string::npos && close != std::string::npos) << stats;
  const std::string compressed = stats.substr(open + 2, close - open - 2);
  EXPECT_EQ(compressed, "30") << stats;
  EXPECT_NE(err.str().find("  archive.encode: " + compressed + ", "), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("  archive.compact: 1, "), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("  archive.open: 1, "), std::string::npos) << err.str();
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, ArchiveCompactUsageErrors) {
  std::ostringstream no_dir;
  EXPECT_EQ(run({"archive", "compact"}, no_dir), 2);
  EXPECT_NE(no_dir.str().find("--dir"), std::string::npos);

  std::ostringstream bad_keep;
  EXPECT_EQ(run({"archive", "compact", "--dir", temp("x"), "--keep-recent", "-1"}, bad_keep),
            2);
  EXPECT_NE(bad_keep.str().find("keep-recent"), std::string::npos);

  std::ostringstream missing;
  EXPECT_EQ(run({"archive", "compact", "--dir", temp("no_such_archive")}, missing), 2);

  std::ostringstream bad_cache;
  EXPECT_EQ(run({"study", "--log2-nv", "12", "--cache-bytes", "-5"}, bad_cache), 2);
  EXPECT_NE(bad_cache.str().find("cache-bytes"), std::string::npos);
  archive::set_cache_bytes(std::nullopt);
}

TEST(CliToolTest, FromCorruptCompactedArchiveIsCleanError) {
  const std::string dir = temp("cli_corrupt_compact");
  std::filesystem::remove_all(dir);
  std::ostringstream io;
  ASSERT_EQ(run({"archive", "--out", dir, "--log2-nv", "12", "--seed", "5"}, io), 0);
  ASSERT_EQ(run({"archive", "compact", "--dir", dir, "--all"}, io), 0);

  // Flip one byte deep inside the compressed generation-1 log: the
  // corruption guarantee holds on OBSAENT2 frames too — clean exit 2,
  // never a crash or silently wrong numbers.
  const std::string log = dir + "/entries.1.dat";
  std::fstream f(log, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 1000);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  std::ostringstream out;
  EXPECT_EQ(run({"study", "--from", dir}, out), 2);
  EXPECT_NE(out.str().find("corrupted"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, UsageDocumentsCompactAndCacheBytes) {
  std::ostringstream help;
  ASSERT_EQ(run({"help"}, help), 0);
  EXPECT_NE(help.str().find("archive compact"), std::string::npos);
  EXPECT_NE(help.str().find("--cache-bytes"), std::string::npos);
  EXPECT_NE(help.str().find("OBSCORR_CACHE_BYTES"), std::string::npos);
}

TEST(CliToolTest, CorrelateUsageErrors) {
  std::ostringstream no_from;
  EXPECT_EQ(run({"correlate"}, no_from), 2);
  EXPECT_NE(no_from.str().find("--from"), std::string::npos);

  std::ostringstream bad_method;
  EXPECT_EQ(run({"correlate", "--from", temp("x"), "--method", "pearson"}, bad_method), 2);
  EXPECT_NE(bad_method.str().find("method"), std::string::npos);

  std::ostringstream bad_domain;
  EXPECT_EQ(run({"correlate", "--from", temp("x"), "--domain", "galaxies"}, bad_domain), 2);

  std::ostringstream bad_top;
  EXPECT_EQ(run({"correlate", "--from", temp("x"), "--top", "-3"}, bad_top), 2);
  EXPECT_NE(bad_top.str().find("top"), std::string::npos);

  std::ostringstream missing;
  EXPECT_EQ(run({"correlate", "--from", temp("no_such_archive")}, missing), 2);
  EXPECT_NE(missing.str().find("error:"), std::string::npos);
}

TEST(CliToolTest, CorrelateRanksArchiveDeterministically) {
  const std::string dir = temp("cli_correlate");
  std::filesystem::remove_all(dir);
  std::ostringstream io;
  ASSERT_EQ(run({"archive", "--out", dir, "--log2-nv", "12", "--seed", "5"}, io), 0);

  // Ranked output carries the netdata-style table, and --threads is
  // plumbing only: both worker counts print byte-identical results.
  std::ostringstream serial, pooled;
  ASSERT_EQ(run({"correlate", "--from", dir, "--top", "0", "--threads", "1"}, serial), 0);
  ASSERT_EQ(run({"correlate", "--from", dir, "--top", "0", "--threads", "4"}, pooled), 0);
  EXPECT_EQ(serial.str(), pooled.str());
  EXPECT_NE(serial.str().find("metric correlations (ks2)"), std::string::npos);
  EXPECT_NE(serial.str().find("table2.valid_packets"), std::string::npos);
  EXPECT_NE(serial.str().find("5 snapshots"), std::string::npos);

  // Both methods work over explicit ranges, and --events replays the
  // streaming detectors over the archived history.
  std::ostringstream volume;
  ASSERT_EQ(run({"correlate", "--from", dir, "--method", "volume", "--baseline", "0:2",
                 "--highlight", "3:4", "--events"},
                volume),
            0);
  EXPECT_NE(volume.str().find("metric correlations (volume)"), std::string::npos);
  EXPECT_NE(volume.str().find("anomaly events ("), std::string::npos);

  // The --json artifact is machine-parseable and self-describing.
  const std::string json_path = temp("cli_correlate.json");
  std::ostringstream json_out, json_err;
  ASSERT_EQ(run({"correlate", "--from", dir, "--json", json_path}, json_out, json_err), 0);
  EXPECT_NE(json_err.str().find("wrote ranked correlations"), std::string::npos);
  std::ifstream jf(json_path);
  ASSERT_TRUE(jf.is_open());
  std::stringstream js;
  js << jf.rdbuf();
  EXPECT_NE(js.str().find("\"method\":\"ks2\""), std::string::npos);
  EXPECT_NE(js.str().find("\"ranked\":["), std::string::npos);
  EXPECT_NE(js.str().find("\"baseline\":"), std::string::npos);

  std::remove(json_path.c_str());
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, MetricsFormatPromWritesOpenMetricsText) {
  const std::string metrics = temp("cli_metrics.prom");
  std::ostringstream out, err;
  ASSERT_EQ(run({"study", "--log2-nv", "12", "--seed", "5", "--metrics-out", metrics,
                 "--metrics-format", "prom"},
                out, err),
            0);
  EXPECT_NE(err.str().find("(prom)"), std::string::npos);

  std::ifstream mf(metrics);
  ASSERT_TRUE(mf.is_open());
  std::stringstream m;
  m << mf.rdbuf();
  const std::string text = m.str();
  EXPECT_NE(text.find("# TYPE obscorr_"), std::string::npos);
  EXPECT_NE(text.find("obscorr_netgen_packets_emitted_total "), std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  std::remove(metrics.c_str());

  std::ostringstream bad;
  EXPECT_EQ(run({"study", "--log2-nv", "12", "--metrics-out", metrics, "--metrics-format",
                 "xml"},
                bad),
            2);
  EXPECT_NE(bad.str().find("metrics-format"), std::string::npos);
}

TEST(CliToolTest, UsageDocumentsCorrelateAndServeAnomalyFlags) {
  std::ostringstream help;
  ASSERT_EQ(run({"help"}, help), 0);
  EXPECT_NE(help.str().find("correlate"), std::string::npos);
  EXPECT_NE(help.str().find("--surge-start"), std::string::npos);
  EXPECT_NE(help.str().find("--metrics-format"), std::string::npos);
  EXPECT_NE(help.str().find("watch"), std::string::npos);
}

/// Run `serve` with one extra flag; returns (exit code, combined output).
/// The archive does not exist, so a flag that slipped through validation
/// fails later with a different message instead of starting a daemon.
std::pair<int, std::string> serve_with(const std::string& flag, const std::string& value) {
  std::ostringstream out;
  const int rc = run({"serve", "--from", temp("no_such_archive"), "--unix",
                      temp("serve_reject.sock"), "--ingest-windows", "1", flag, value},
                     out);
  return {rc, out.str()};
}

TEST(CliToolTest, ServeRejectsWindowPacketsBelowOne) {
  for (const char* value : {"0", "-1"}) {
    const auto [rc, text] = serve_with("--window-packets", value);
    EXPECT_EQ(rc, 2) << value;
    EXPECT_NE(text.find("--window-packets must be >= 1"), std::string::npos) << text;
  }
}

TEST(CliToolTest, ServeRejectsNonPositivePacketRate) {
  for (const char* value : {"0", "-2.5"}) {
    const auto [rc, text] = serve_with("--packet-rate", value);
    EXPECT_EQ(rc, 2) << value;
    EXPECT_NE(text.find("--packet-rate must be > 0"), std::string::npos) << text;
  }
}

TEST(CliToolTest, ServeRejectsMaxConnsBelowOne) {
  for (const char* value : {"0", "-1"}) {
    const auto [rc, text] = serve_with("--max-conns", value);
    EXPECT_EQ(rc, 2) << value;
    EXPECT_NE(text.find("--max-conns must be >= 1"), std::string::npos) << text;
  }
}

TEST(CliToolTest, ArchiveRequiresOutAndUsageMentionsIt) {
  std::ostringstream out;
  EXPECT_EQ(run({"archive"}, out), 2);
  EXPECT_NE(out.str().find("--out"), std::string::npos);
  std::ostringstream help;
  ASSERT_EQ(run({"help"}, help), 0);
  EXPECT_NE(help.str().find("archive"), std::string::npos);
  EXPECT_NE(help.str().find("--from"), std::string::npos);
}

TEST(CliToolTest, UsageDocumentsDegreesWindow) {
  std::ostringstream help;
  ASSERT_EQ(run({"help"}, help), 0);
  EXPECT_NE(help.str().find("[--snapshot K=0] [--window W]"), std::string::npos);
}

TEST(CliToolTest, ServeRejectsPortOutsideRange) {
  // htons would truncate 70000 to 4464; -1 used to mean "no --port".
  for (const char* value : {"70000", "65536", "-1"}) {
    std::ostringstream out;
    EXPECT_EQ(run({"serve", "--from", temp("no_such_archive"), "--port", value}, out), 2) << value;
    EXPECT_NE(out.str().find("--port must be in 0..65535"), std::string::npos) << out.str();
  }
}

TEST(CliToolTest, ServeRejectsDeadlinesThatAreNotPositive) {
  // A zero idle timeout reaps every connection before its first request.
  for (const char* flag : {"--request-timeout", "--idle-timeout", "--metrics-interval"}) {
    for (const char* value : {"0", "-1", "inf", "nan"}) {
      const auto [rc, text] = serve_with(flag, value);
      EXPECT_EQ(rc, 2) << flag << ' ' << value;
      EXPECT_NE(text.find(std::string(flag) + " must be finite and > 0"), std::string::npos)
          << text;
    }
  }
  // What perfbench and the smoke tools pass stays valid: validation lets
  // it through and the missing archive is what fails.
  for (const auto& [flag, value] :
       {std::pair{"--metrics-interval", "3600"}, std::pair{"--idle-timeout", "0.5"},
        std::pair{"--request-timeout", "30"}, std::pair{"--drain-timeout", "0"}}) {
    const auto [rc, text] = serve_with(flag, value);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(text.find("not an archive directory"), std::string::npos) << flag << '\n' << text;
  }
}

TEST(CliToolTest, ServeRejectsNegativeDrainTimeout) {
  for (const char* value : {"-1", "-0.5", "inf", "nan"}) {
    const auto [rc, text] = serve_with("--drain-timeout", value);
    EXPECT_EQ(rc, 2) << value;
    EXPECT_NE(text.find("--drain-timeout must be finite and >= 0"), std::string::npos) << text;
  }
}

TEST(CliToolTest, ServeSurgeShapeNeedsSurgeStart) {
  for (const char* flag : {"--surge-len", "--surge-factor"}) {
    const auto [rc, text] = serve_with(flag, "3");
    EXPECT_EQ(rc, 2) << flag;
    EXPECT_NE(text.find("need --surge-start"), std::string::npos) << text;
  }
}

TEST(CliToolTest, SnapshotWithMatrixIsRejected) {
  // --snapshot selects from an archive; with --matrix it used to be
  // silently ignored.
  for (const char* command : {"degrees", "prefixes"}) {
    std::ostringstream out;
    EXPECT_EQ(run({command, "--matrix", temp("m.gbl"), "--snapshot", "3"}, out), 2) << command;
    EXPECT_NE(out.str().find("--snapshot"), std::string::npos) << out.str();
    EXPECT_NE(out.str().find("need"), std::string::npos) << out.str();
  }
}

TEST(CliToolTest, UsageErrorsPrintTheirMessageAlone) {
  // A failed flag or range check reaches users as `error: <message>`,
  // with no check expression or source location before it.
  const std::string golden = OBSCORR_TEST_DATA_DIR "/golden_study";
  const std::string missing = temp("no_such_archive");
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"prefixes", "--from", golden, "--snapshot", "99"}, "archive: snapshot index out of range"},
      {{"prefixes", "--from", golden, "--length", "40"},
       "analyze_prefixes: length must be in [1,32]"},
      {{"serve", "--from", missing, "--unix", temp("serve_msg.sock"), "--surge-start", "1",
        "--surge-len", "0"},
       "serve: --surge-len must be > 0"},
      {{"archive", "compact", "--dir", missing, "--keep-recent", "-1"},
       "archive compact: --keep-recent must be >= 0"},
      {{"archive", "compact", "--dir", missing, "--keep-recent", "abc"},
       "option --keep-recent expects an integer"},
      {{"study", "--log2-nv", "12", "--cache-bytes", "-5"},
       "--cache-bytes must be a non-negative byte count"},
      {{"study", "--log2-nv", "12", "--threads", "x"}, "option --threads expects an integer"},
      {{"study", "--log2-nv", "12", "--metrics-format", "xml"},
       "--metrics-format must be json or prom"},
      {{"generate"}, "generate: --out FILE is required"},
      // Each value below narrows to a small, valid `int` (12, 12, 0 and
      // 2), so only a range check before the narrowing rejects it.
      {{"prefixes", "--from", golden, "--length", "4294967308"},
       "option --length is out of range"},
      {{"scaling", "--log2-nv", "4294967308"}, "option --log2-nv is out of range"},
      {{"generate", "--out", temp("wrapped_month.trc"), "--month-index", "4294967296"},
       "option --month-index is out of range"},
      {{"study", "--log2-nv", "12", "--threads", "4294967298"}, "option --threads is out of range"},
      // Fits an `int` but is past the thread ceiling: rejected before
      // any pool starts a thread.
      {{"study", "--log2-nv", "12", "--threads", "1025"}, "option --threads is out of range"},
      // Negative is not "not given": it is out of range.
      {{"study", "--log2-nv", "12", "--threads", "-3"}, "option --threads is out of range"},
  };
  for (const auto& [args, message] : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run(args, out, err), 2) << message;
    EXPECT_EQ(out.str(), "") << message;
    EXPECT_EQ(err.str(), "error: " + message + "\n");
  }
  archive::set_cache_bytes(std::nullopt);

  // The environment's thread count is checked the same way.
  const char* saved = std::getenv("OBSCORR_THREADS");
  const std::optional<std::string> old_threads =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  ::setenv("OBSCORR_THREADS", "-2", 1);
  std::ostringstream out, err;
  EXPECT_EQ(run({"study", "--log2-nv", "12"}, out, err), 2);
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(err.str(), "error: OBSCORR_THREADS is out of range\n");
  if (old_threads) {
    ::setenv("OBSCORR_THREADS", old_threads->c_str(), 1);
  } else {
    ::unsetenv("OBSCORR_THREADS");
  }
}

/// Publish `windows` more live windows of 4096 valid packets into `dir`
/// through `engine`, as `obscorr serve` does; throws when ingest fails.
void ingest_windows(const std::string& dir, svc::QueryEngine& engine, ThreadPool& pool,
                    std::size_t windows) {
  interrupt::reset();
  svc::IngestConfig cfg;
  cfg.max_windows = windows;
  cfg.window_packets = 4096;
  svc::IngestLoop ingest(dir, engine, pool, cfg);
  ingest.start();
  for (int spin = 0; spin < 6000 && ingest.published() < windows && ingest.error().empty();
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ingest.stop_and_join();
  if (ingest.published() != windows) throw std::runtime_error("ingest failed: " + ingest.error());
}

/// A private copy of the golden archive (log2 N_V = 12, seed 42, five
/// snapshots) with `windows` live windows appended.
std::string live_window_archive(const std::string& name, std::size_t windows) {
  const std::string dir = temp(name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::copy(OBSCORR_TEST_DATA_DIR "/golden_study", dir);
  ThreadPool pool(2);
  svc::QueryEngine engine(dir, pool);
  ingest_windows(dir, engine, pool, windows);
  return dir;
}

/// One live window: enough for degrees by window, too few windows for a
/// windows-domain correlate.
std::string one_window_archive(const std::string& name) { return live_window_archive(name, 1); }

/// One query as each front spells it: CLI flags (`--from DIR` is added)
/// and the daemon's request line.
struct FrontCase {
  std::vector<std::string> cli;
  std::string request;
  std::string message = {};  ///< the error both fronts must give, when set
};

/// Run `c` through both fronts over the archive `dir`: the CLI's exit
/// code, stdout and stderr, and the daemon's response.
struct FrontResult {
  int rc;
  std::string out;
  std::string err;
  svc::JsonValue response;
};

FrontResult run_both(const FrontCase& c, const std::string& dir, svc::QueryEngine& engine) {
  std::vector<std::string> args = c.cli;
  args.insert(args.end(), {"--from", dir});
  std::ostringstream out, err;
  const int rc = run(args, out, err);
  return {rc, out.str(), err.str(), svc::parse_json(engine.execute(svc::parse_request(c.request)))};
}

/// The windows-domain correlate cases of the parity table: the default
/// framing, and volume with explicit ranges and every metric.
const std::vector<FrontCase> kWindowCorrelateCases = {
    {{"correlate", "--domain", "windows"},
     R"({"query":"correlate","params":{"domain":"windows"}})"},
    {{"correlate"}, R"({"query":"correlate"})"},
    {{"correlate", "--domain", "windows", "--method", "volume", "--baseline", "0:3",
      "--highlight", "4:5", "--top", "0"},
     R"({"query":"correlate","params":{"domain":"windows","method":"volume",)"
     R"("baseline":"0:3","highlight":"4:5","top":0}})"},
};

/// Run `cases` through both fronts over `dir` and require the same text.
/// correlate's CLI output opens with a line naming the archive and the
/// domain's window count.
void expect_fronts_agree(const std::vector<FrontCase>& cases, const std::string& dir,
                         svc::QueryEngine& engine, std::size_t windows) {
  for (const FrontCase& c : cases) {
    const FrontResult r = run_both(c, dir, engine);
    ASSERT_EQ(r.rc, 0) << c.request << '\n' << r.err;
    ASSERT_TRUE(r.response.find("ok")->as_bool()) << c.request;
    const bool snapshots = std::ranges::find(c.cli, "snapshots") != c.cli.end();
    const std::string header =
        c.cli.front() != "correlate" ? ""
        : snapshots                  ? "archive: " + dir + " (5 snapshots)\n"
                                     : "archive: " + dir + " (" + std::to_string(windows) +
                                           " windows)\n";
    EXPECT_EQ(r.out, header + r.response.find("result")->find("text")->as_string()) << c.request;
  }
}

TEST(CliToolTest, CliAndDaemonAnswerValidQueriesIdentically) {
  // Six live windows, published in two sessions. The second session's
  // manifest publications are then rolled back, as a crash would lose
  // them, so the restart below recovers those three windows.
  const std::string dir = live_window_archive("cli_fronts_valid", 3);
  const std::string manifest = dir + "/MANIFEST.obsar";
  const std::string lost = temp("cli_fronts_valid.manifest." + std::to_string(::getpid()));
  std::filesystem::copy_file(manifest, lost, std::filesystem::copy_options::overwrite_existing);
  ThreadPool pool(2);
  std::optional<svc::QueryEngine> engine(std::in_place, dir, pool);
  ingest_windows(dir, *engine, pool, 3);
  ASSERT_EQ(engine->window_count(), 6u);
  // A source the honeyfarm saw in the first month.
  const std::string seen = archive::StudyReader(dir).months().front().sources.row_keys().front();

  std::vector<FrontCase> cases = {
      {{"degrees"}, R"({"query":"degrees"})"},
      {{"degrees", "--snapshot", "3"}, R"({"query":"degrees","params":{"snapshot":3}})"},
      {{"degrees", "--window", "0"}, R"({"query":"degrees","params":{"window":0}})"},
      {{"lookup", "--ip", seen}, R"({"query":"lookup","params":{"ip":")" + seen + R"("}})"},
      {{"lookup", "--ip", "203.0.113.7"}, R"({"query":"lookup","params":{"ip":"203.0.113.7"}})"},
      {{"scaling"}, R"({"query":"scaling"})"},
      {{"correlate", "--domain", "snapshots"},
       R"({"query":"correlate","params":{"domain":"snapshots"}})"},
      {{"correlate", "--domain", "snapshots", "--method", "volume", "--baseline", "0:2",
        "--highlight", "3:4", "--top", "0"},
       R"({"query":"correlate","params":{"domain":"snapshots","method":"volume",)"
       R"("baseline":"0:2","highlight":"3:4","top":0}})"},
  };
  cases.insert(cases.end(), kWindowCorrelateCases.begin(), kWindowCorrelateCases.end());
  expect_fronts_agree(cases, dir, *engine, 6);
  EXPECT_NE(run_both(cases[3], dir, *engine).out.find("seen in"), std::string::npos);
  EXPECT_NE(run_both(cases[4], dir, *engine).out.find("never observed"), std::string::npos);

  // Restart over the rolled-back manifest: the engine opens at three
  // windows, and the ingest loop's LiveArchive open republishes the other
  // three, which the engine samples from the archive as they appear.
  engine.reset();
  std::filesystem::copy_file(lost, manifest, std::filesystem::copy_options::overwrite_existing);
  engine.emplace(dir, pool);
  ASSERT_EQ(engine->window_count(), 3u);
  ingest_windows(dir, *engine, pool, 0);
  ASSERT_EQ(engine->window_count(), 6u);
  expect_fronts_agree(kWindowCorrelateCases, dir, *engine, 6);
  engine.reset();
  std::filesystem::remove_all(dir);
  std::filesystem::remove(lost);
}

/// Samples taken so far (the counter registry must be armed).
std::uint64_t windows_sampled() { return obs::counter("analysis.windows_sampled").value(); }

TEST(DaemonCorrelateTest, UncachedWindowsCorrelateReadsNoWindow) {
  // Over a force-compacted archive with the page cache off, every window
  // read decodes. The daemon's correlate ranks the samples it took when
  // it opened, so an uncached render decodes nothing and samples nothing.
  const std::string dir = live_window_archive("daemon_correlate_compacted", 6);
  std::ostringstream out, err;
  ASSERT_EQ(run({"archive", "compact", "--dir", dir, "--all"}, out, err), 0) << err.str();
  archive::set_cache_bytes(0);
  obs::reset();
  obs::set_level(obs::Level::kFull);
  {
    ThreadPool pool(2);
    svc::QueryEngine engine(dir, pool);
    EXPECT_EQ(windows_sampled(), 6u);
    obs::reset();
    const auto decodes = [] {
      return std::ranges::count_if(obs::span_events(), [](const obs::SpanEvent& e) {
        return std::string_view(e.name) == "archive.decode";
      });
    };
    for (const FrontCase& c : kWindowCorrelateCases) {
      const svc::JsonValue r = svc::parse_json(engine.execute(svc::parse_request(c.request)));
      ASSERT_TRUE(r.find("ok")->as_bool()) << c.request;
    }
    EXPECT_EQ(decodes(), 0);
    EXPECT_EQ(windows_sampled(), 0u);
    // The spans are live: a window's degrees do decode its sources.
    const svc::JsonValue degrees = svc::parse_json(
        engine.execute(svc::parse_request(R"({"query":"degrees","params":{"window":2}})")));
    ASSERT_TRUE(degrees.find("ok")->as_bool());
    EXPECT_GT(decodes(), 0);
  }
  obs::set_level(obs::Level::kOff);
  obs::reset();
  archive::set_cache_bytes(std::nullopt);
  std::filesystem::remove_all(dir);
}

TEST(DaemonCorrelateTest, CorrelateRacingIngestMatchesTheCliAtItsWindowCount) {
  // Correlates race live ingest. Each answer is the CLI's over the same
  // ranges, the ranges the daemon resolved at its window count, and the
  // daemon samples every window exactly once: the windows at open, plus
  // one per published window, however many correlates it rendered.
  const std::string dir = live_window_archive("daemon_correlate_race", 2);
  obs::reset();
  obs::set_level(obs::Level::kCounters);
  std::vector<std::pair<bool, svc::JsonValue>> answers;  // (volume?, result)
  {
    ThreadPool pool(4);
    svc::QueryEngine engine(dir, pool);
    EXPECT_EQ(windows_sampled(), 2u);
    std::atomic<bool> done{false};
    std::thread client([&] {
      for (std::size_t i = 0; !done.load(); ++i) {
        const bool volume = i % 2 == 1;
        const svc::JsonValue r = svc::parse_json(engine.execute(svc::parse_request(
            volume ? R"({"query":"correlate","params":{"domain":"windows","method":"volume"}})"
                   : R"({"query":"correlate","params":{"domain":"windows"}})")));
        if (r.find("ok")->as_bool()) answers.emplace_back(volume, *r.find("result"));
      }
    });
    ingest_windows(dir, engine, pool, 8);
    done.store(true);
    client.join();
    EXPECT_EQ(windows_sampled(), 10u);
  }
  obs::set_level(obs::Level::kOff);
  obs::reset();
  ASSERT_FALSE(answers.empty());
  const auto range = [](const svc::JsonValue& r) {
    return std::to_string(r.find("first")->as_uint()) + ":" +
           std::to_string(r.find("last")->as_uint());
  };
  std::size_t checked = 0;
  std::string last_key;
  for (const auto& [volume, result] : answers) {
    const std::string baseline = range(*result.find("baseline"));
    const std::string highlight = range(*result.find("highlight"));
    const std::string key = (volume ? "v" : "k") + baseline + "/" + highlight;
    if (key == last_key) continue;  // a repeat of the answer just checked
    last_key = key;
    const std::string json_path = temp("daemon_correlate_race.json");
    std::vector<std::string> args = {"correlate",   "--from",  dir,       "--baseline", baseline,
                                     "--highlight", highlight, "--json", json_path};
    if (volume) args.insert(args.end(), {"--method", "volume"});
    std::ostringstream out, err;
    ASSERT_EQ(run(args, out, err), 0) << err.str();
    const std::string text = out.str();
    EXPECT_EQ(text.substr(text.find('\n') + 1), result.find("text")->as_string()) << key;
    std::ifstream json(json_path);
    const std::string cli_json((std::istreambuf_iterator<char>(json)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(svc::dump_json(*svc::parse_json(cli_json).find("ranked")),
              svc::dump_json(*result.find("ranked")))
        << key;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  std::filesystem::remove_all(dir);
}

/// The `honeyfarm.database` spans recorded since the last obs::reset().
std::vector<std::string> database_spans() {
  std::vector<std::string> details;
  for (const obs::SpanEvent& e : obs::span_events()) {
    if (std::string_view(e.name) == "honeyfarm.database") details.push_back(e.detail);
  }
  return details;
}

TEST(CliToolTest, LookupRecordsOneDatabaseSpanPerBuild) {
  const std::string golden = OBSCORR_TEST_DATA_DIR "/golden_study";
  std::ostringstream out, err;
  ASSERT_EQ(run({"lookup", "--ip", "203.0.113.7", "--from", golden, "--timing"}, out, err), 0);
  EXPECT_NE(err.str().find("  honeyfarm.database: 1, "), std::string::npos) << err.str();

  // The daemon builds its database on the first lookup; later lookups,
  // cached or not, reuse it.
  ThreadPool pool(2);
  svc::QueryEngine engine(golden, pool);
  const std::string seen = archive::StudyReader(golden).month(0).sources.row_keys().front();
  obs::reset();
  obs::set_level(obs::Level::kFull);
  const auto lookup = [&](const std::string& ip) {
    return svc::parse_json(engine.execute(
        svc::parse_request(R"({"query":"lookup","params":{"ip":")" + ip + R"("}})")));
  };
  ASSERT_TRUE(lookup(seen).find("ok")->as_bool());
  EXPECT_EQ(database_spans(), std::vector<std::string>{"15"});
  ASSERT_TRUE(lookup("203.0.113.7").find("ok")->as_bool());
  ASSERT_TRUE(lookup(seen).find("ok")->as_bool());
  obs::set_level(obs::Level::kOff);
  EXPECT_EQ(database_spans(), std::vector<std::string>{"15"});
  obs::reset();
}

TEST(CliToolTest, LookupPrintsContactsOutsideTheCountRangeOnBothFronts) {
  // read_binary checks a month's structure, not its values: a crafted
  // month whose checksums hold can carry any contact count. Counts a u64
  // holds print digit-grouped as always; the rest print as doubles.
  core::StudyData study = archive::read_study(OBSCORR_TEST_DATA_DIR "/golden_study");
  d4m::AssocArray& month = study.months[0].sources;
  month = d4m::oracle::ewise_add(
      month, d4m::oracle::build(
                 {{"198.51.100.1", "contacts", -7.0},
                  {"198.51.100.2", "contacts", std::numeric_limits<double>::quiet_NaN()},
                  {"198.51.100.3", "contacts", 1e20},
                  {"198.51.100.4", "contacts", 1234567.9}}));
  const std::string dir = temp("cli_crafted_contacts." + std::to_string(::getpid()));
  archive::write_study(study, dir);
  ThreadPool pool(2);
  std::optional<svc::QueryEngine> engine(std::in_place, dir, pool);
  for (const auto& [ip, peak] : std::vector<std::pair<std::string, std::string>>{
           {"198.51.100.1", "-7"},
           {"198.51.100.2", "nan"},
           {"198.51.100.3", "1e+20"},
           {"198.51.100.4", "1,234,567"}}) {
    const FrontResult r = run_both(
        {{"lookup", "--ip", ip}, R"({"query":"lookup","params":{"ip":")" + ip + R"("}})"}, dir,
        *engine);
    ASSERT_EQ(r.rc, 0) << ip << '\n' << r.err;
    EXPECT_NE(r.out.find(", peak contacts=" + peak + "\n"), std::string::npos) << r.out;
    EXPECT_EQ(r.out, r.response.find("result")->find("text")->as_string()) << ip;
  }
  engine.reset();
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, LookupFromAMonthWithANonCanonicalKeyIsCleanError) {
  // A month's checksums can hold over a row key no address prints: the
  // database's address-keyed views refuse it, on both fronts, and the
  // message names the entry.
  core::StudyData study = archive::read_study(OBSCORR_TEST_DATA_DIR "/golden_study");
  d4m::AssocArray& month = study.months[3].sources;
  month = d4m::oracle::ewise_add(month, d4m::oracle::build({{"1.2.3.04", "contacts", 1.0}}));
  const std::string dir = temp("cli_noncanonical_key." + std::to_string(::getpid()));
  archive::write_study(study, dir);
  ThreadPool pool(2);
  std::optional<svc::QueryEngine> engine(std::in_place, dir, pool);
  const std::string message =
      "archive: entry month/3: read_binary: row key is not a canonical dotted quad";
  for (const std::string threads : {"1", "4"}) {
    const FrontResult r = run_both({{"lookup", "--ip", "108.252.185.5", "--threads", threads},
                                    R"({"query":"lookup","params":{"ip":"108.252.185.5"}})"},
                                   dir, *engine);
    EXPECT_EQ(r.rc, 2) << threads;
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_EQ(r.err, "error: " + message + "\n") << threads;
    ASSERT_FALSE(r.response.find("ok")->as_bool());
    EXPECT_EQ(r.response.find("error")->find("message")->as_string(), message);
  }
  engine.reset();
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, PrefixesAndQuantitiesPrintCraftedMatrixValues) {
  // MatrixView::from_bytes checks a file's layout, not its values: a
  // crafted matrix can hold any double. A NaN would break `prefixes`'
  // ranking, so it is an error there; `quantities` prints the NaN sum.
  // Other counts print through the one formatter for a count held in a
  // double, never through an undefined cast to u64.
  const std::string nan_file = temp("cli_crafted_nan.gbl");
  const std::string odd_file = temp("cli_crafted_values.gbl");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  archive::write_matrix_file(
      nan_file, gbl::DcsrMatrix::from_tuples({{0x01000000, 1, 1.0}, {0x02000000, 1, nan}}));
  archive::write_matrix_file(odd_file, gbl::DcsrMatrix::from_tuples({{0x01000000, 1, -7.0},
                                                                     {0x02000000, 1, 1e20},
                                                                     {0x03000000, 1, 1234567.9}}));
  {
    std::ostringstream out, err;
    EXPECT_EQ(run({"prefixes", "--matrix", nan_file, "--length", "8"}, out, err), 2);
    EXPECT_EQ(out.str(), "");
    EXPECT_EQ(err.str(), "error: analyze_prefixes: packet counts must be finite\n");
  }
  {
    std::ostringstream out, err;
    ASSERT_EQ(run({"quantities", "--matrix", nan_file}, out, err), 0) << err.str();
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line) && line.rfind("valid packets", 0) != 0) {
    }
    ASSERT_EQ(line.rfind("valid packets", 0), 0u) << out.str();
    std::istringstream cells(line);
    std::string cell, value;
    while (cells >> cell) value = cell;
    EXPECT_EQ(value, "nan") << line;
  }
  std::ostringstream out, err;
  ASSERT_EQ(run({"prefixes", "--matrix", odd_file, "--length", "8"}, out, err), 0) << err.str();
  const std::string text = out.str();
  const std::size_t huge = text.find(" 1e+20\n");
  const std::size_t grouped = text.find(" 1,234,567\n");
  const std::size_t negative = text.find(" -7\n");
  ASSERT_NE(huge, std::string::npos) << text;
  ASSERT_NE(grouped, std::string::npos) << text;
  ASSERT_NE(negative, std::string::npos) << text;
  EXPECT_LT(huge, grouped) << text;
  EXPECT_LT(grouped, negative) << text;
  std::remove(nan_file.c_str());
  std::remove(odd_file.c_str());
}

/// Whether /dev/full is the character device every write to fails with
/// ENOSPC: the full disk the write-failure tests point symlinks at.
bool have_full_device() {
  std::error_code ec;
  return std::filesystem::is_character_file("/dev/full", ec);
}

/// A fresh, empty directory under the test temp directory.
std::string fresh_dir(const std::string& name) {
  const std::string dir = temp(name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CliToolTest, OutputFilesThatCannotBeWrittenAreErrors) {
  // Each output goes through a symlink to /dev/full. The command must
  // exit 2 with an error naming the path, never print its `wrote` line,
  // and leave the symlink in place.
  if (!have_full_device()) GTEST_SKIP() << "/dev/full is not a character device";
  const std::string golden = OBSCORR_TEST_DATA_DIR "/golden_study";
  const std::string dir = fresh_dir("cli_full_outputs");
  const std::string full = dir + "/full";
  std::filesystem::create_symlink("/dev/full", full);
  const auto expect_write_error = [](const std::vector<std::string>& args,
                                     const std::string& path, const std::string& message) {
    std::ostringstream out, err;
    EXPECT_EQ(run(args, out, err), 2) << args[0] << '\n' << err.str();
    EXPECT_NE(err.str().find("error: " + message + "\n"), std::string::npos) << err.str();
    std::istringstream lines(err.str());
    for (std::string line; std::getline(lines, line);) {
      EXPECT_FALSE(line.rfind("wrote ", 0) == 0 && line.find(path) != std::string::npos) << line;
    }
    EXPECT_TRUE(std::filesystem::is_symlink(path)) << path;
  };
  expect_write_error({"generate", "--out", full, "--log2-nv", "10"}, full,
                     "record_trace: cannot write " + full);
  expect_write_error({"correlate", "--from", golden, "--json", full}, full,
                     "correlate: cannot write " + full);
  expect_write_error({"study", "--from", golden, "--trace-out", full}, full,
                     "telemetry: cannot write trace to " + full);

  // `report`: the first CSV, then REPORT.md after every CSV was written.
  for (const char* name : {"table1_inventory.csv", "REPORT.md"}) {
    const std::string out_dir = dir + "/report_" + name;
    std::filesystem::create_directories(out_dir);
    const std::string target = out_dir + "/" + name;
    std::filesystem::create_symlink("/dev/full", target);
    expect_write_error({"report", "--from", golden, "--out", out_dir}, target,
                       "report: cannot write " + target);
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/report_REPORT.md/fig7_fig8_fit_parameters.csv"));
  std::filesystem::remove_all(dir);
}

TEST(CliToolTest, MetricsOutWritesThroughSymlinksAndKeepsThem) {
  // tmp + rename replaces only an absent path or a regular file; any
  // other target is written in place, so a symlink (or the device node
  // behind it) is never replaced by a regular file.
  const std::string golden = OBSCORR_TEST_DATA_DIR "/golden_study";
  const std::string dir = fresh_dir("cli_metrics_links");
  const std::string doc = dir + "/metrics.json";
  const std::string link = dir + "/link.json";
  std::ofstream(doc) << "old\n";
  std::filesystem::create_symlink(doc, link);
  {
    std::ostringstream out, err;
    ASSERT_EQ(run({"study", "--from", golden, "--metrics-out", link}, out, err), 0) << err.str();
    EXPECT_NE(err.str().find("wrote metrics to " + link), std::string::npos) << err.str();
  }
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_FALSE(std::filesystem::exists(link + ".tmp"));
  std::ifstream in(doc);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"schema\": \"obscorr.metrics.v1\""), std::string::npos)
      << text.str();

  if (!have_full_device()) GTEST_SKIP() << "/dev/full is not a character device";
  const std::string full = dir + "/full";
  std::filesystem::create_symlink("/dev/full", full);
  std::ostringstream out, err;
  EXPECT_EQ(run({"study", "--from", golden, "--metrics-out", full}, out, err), 2);
  EXPECT_NE(err.str().find("error: telemetry: cannot write metrics to " + full + "\n"),
            std::string::npos)
      << err.str();
  EXPECT_EQ(err.str().find("wrote metrics"), std::string::npos) << err.str();
  EXPECT_TRUE(std::filesystem::is_symlink(full));
  EXPECT_FALSE(std::filesystem::exists(full + ".tmp"));
  std::filesystem::remove_all(dir);
}

/// A stream buffer whose every write fails, as stdout on a full disk.
class FailingBuf : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

TEST(CliToolTest, StdoutThatCannotBeWrittenIsAnError) {
  FailingBuf failing;
  std::ostream out(&failing);
  std::ostringstream err;
  EXPECT_EQ(run({"study", "--from", OBSCORR_TEST_DATA_DIR "/golden_study"}, out, err), 2);
  EXPECT_NE(err.str().find("error: cannot write standard output\n"), std::string::npos)
      << err.str();
}

TEST(CliToolTest, CliAndDaemonRejectInvalidQueriesIdentically) {
  const std::string dir = one_window_archive("cli_fronts_invalid");
  ThreadPool pool(2);
  std::optional<svc::QueryEngine> engine(std::in_place, dir, pool);
  std::vector<FrontCase> cases = {
      {{"degrees", "--snapshot", "0", "--window", "0"},
       R"({"query":"degrees","params":{"snapshot":0,"window":0}})",
       "degrees: snapshot and window are mutually exclusive"},
      {{"degrees", "--snapshot", "99"}, R"({"query":"degrees","params":{"snapshot":99}})",
       "degrees: snapshot 99 is out of range (snapshots: 5)"},
      {{"degrees", "--window", "1"}, R"({"query":"degrees","params":{"window":1}})",
       "degrees: window 1 is out of range (windows: 1)"},
      {{"degrees", "--window", "first"}, R"({"query":"degrees","params":{"window":"first"}})",
       "degrees: window must be a non-negative integer"},
      {{"degrees", "--snapshott", "3"}, R"({"query":"degrees","params":{"snapshott":3}})",
       "degrees: unknown parameter \"snapshott\""},
      {{"lookup", "--ip", "1.2.3"}, R"({"query":"lookup","params":{"ip":"1.2.3"}})",
       "lookup: malformed address 1.2.3"},
      {{"lookup"}, R"({"query":"lookup"})", "lookup: ip A.B.C.D is required"},
      {{"correlate", "--domain", "snapshots", "--baseline", "3:1"},
       R"({"query":"correlate","params":{"domain":"snapshots","baseline":"3:1"}})",
       "correlate: baseline range must be ordered"},
      {{"correlate", "--highlight", "4"}, R"({"query":"correlate","params":{"highlight":"4"}})",
       "correlate: highlight wants FIRST:LAST"},
      {{"correlate", "--domain", "galaxies"},
       R"({"query":"correlate","params":{"domain":"galaxies"}})",
       "correlate: domain must be windows or snapshots"},
      {{"correlate", "--method", "pearson"},
       R"({"query":"correlate","params":{"method":"pearson"}})",
       "unknown correlation method 'pearson' (want ks2|volume)"},
      {{"correlate", "--top", "-3"}, R"({"query":"correlate","params":{"top":-3}})",
       "correlate: top must be a non-negative integer"},
      {{"correlate", "--domain", "windows"},
       R"({"query":"correlate","params":{"domain":"windows"}})",
       "correlate: archive has fewer than 2 windows"},
  };
  // Each half of a range is a whole unsigned integer: no trailing text,
  // sign, leading space or radix prefix, and no wrap of a negative.
  for (const std::string range : {"0:2junk", "+0:2", " 0:2", "0x1:2", "0:-1"}) {
    cases.push_back({{"correlate", "--domain", "snapshots", "--baseline", range},
                     R"({"query":"correlate","params":{"domain":"snapshots","baseline":")" +
                         range + R"("}})",
                     "correlate: baseline wants FIRST:LAST integers"});
  }
  for (const FrontCase& c : cases) {
    const FrontResult r = run_both(c, dir, *engine);
    EXPECT_EQ(r.rc, 2) << c.request;
    EXPECT_TRUE(r.out.empty()) << c.request;
    ASSERT_FALSE(r.response.find("ok")->as_bool()) << c.request;
    const svc::JsonValue* error = r.response.find("error");
    EXPECT_EQ(error->find("code")->as_string(), "bad_request") << c.request;
    const std::string& message = error->find("message")->as_string();
    EXPECT_EQ(r.err, "error: " + message + "\n") << c.request;
    EXPECT_EQ(message, c.message) << c.request;
    // Users see the message alone: no check expression or source location.
    EXPECT_EQ(message.find("requirement failed"), std::string::npos) << c.request;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << c.request;
  }
  engine.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obscorr::tools
