#pragma once
/// \file matrix_file.hpp
/// One traffic matrix in a file of its own: what `obscorr capture --out`
/// writes and `quantities`, `degrees --matrix` and `prefixes --matrix`
/// read. The file holds exactly the bytes of an archive's
/// `snapshot/<k>/matrix` entry (`gbl::append_matrix_v2`, format
/// "OBSCGBL2"), so the store and the single-window file share one writer
/// and one validator (`gbl::MatrixView::from_bytes`).

#include <string>

#include "gbl/dcsr.hpp"
#include "gbl/matrix_view.hpp"

namespace obscorr::archive {

/// Write `m` to `path` as one format-v2 payload, replacing any file
/// there. Throws std::invalid_argument when the file cannot be written.
void write_matrix_file(const std::string& path, const gbl::DcsrMatrix& m);

/// Read `path` into an owned buffer and validate it; the view shares
/// ownership of the buffer. Throws std::invalid_argument when the file
/// cannot be read or is not one valid payload. The file is copied, not
/// mapped: another process may rewrite it while the view is live, and a
/// mapping would turn that into SIGBUS.
gbl::MatrixView read_matrix_file(const std::string& path);

}  // namespace obscorr::archive
