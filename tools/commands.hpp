#pragma once
/// \file commands.hpp
/// The `obscorr` command-line tool as a testable function of (args,
/// output streams): one table of subcommands run by one driver, with
/// query parameters parsed by the same code as the `serve` daemon's
/// (svc/queries.hpp). The tool drives the public library
/// API end to end — generate traffic, capture windows, archive matrices,
/// analyze distributions, run the full cross-observatory study, and query
/// the honeyfarm database — so a downstream user can reproduce the
/// paper's workflow without writing C++.
///
/// Stream contract: `out` carries result data only (tables, fits,
/// machine-parseable series); diagnostics, progress summaries, errors,
/// and `--timing` telemetry all go to `err`. Every subcommand accepts
/// `--timing` / `--metrics-out FILE` / `--trace-out FILE`; any of them
/// arms full telemetry for the run, and none of them changes a byte of
/// `out`.

#include <iosfwd>
#include <string>
#include <vector>

namespace obscorr::tools {

/// Dispatch `args` (subcommand first) writing result data to `out` and
/// diagnostics to `err`. Returns a process exit code (0 success, 2
/// usage error or an output, `out` included, that cannot be written).
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

/// Single-stream convenience (tests, embedding): diagnostics interleave
/// with results on `out`.
inline int run(const std::vector<std::string>& args, std::ostream& out) {
  return run(args, out, out);
}

/// The usage text printed by `obscorr help` and on errors.
std::string usage();

}  // namespace obscorr::tools
