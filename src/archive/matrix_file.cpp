#include "archive/matrix_file.hpp"

#include <fstream>
#include <memory>

#include "archive/mapped_file.hpp"
#include "common/error.hpp"

namespace obscorr::archive {

void write_matrix_file(const std::string& path, const gbl::DcsrMatrix& m) {
  std::string bytes;
  gbl::append_matrix_v2(bytes, m);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  OBSCORR_REQUIRE(os.is_open(), "matrix file: cannot open " + path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();
  OBSCORR_REQUIRE(!os.fail(), "matrix file: cannot write " + path);
}

gbl::MatrixView read_matrix_file(const std::string& path) {
  const auto file =
      std::make_shared<const MappedFile>(MappedFile::open(path, /*allow_mmap=*/false));
  return gbl::MatrixView::from_bytes(file->bytes(), file);
}

}  // namespace obscorr::archive
