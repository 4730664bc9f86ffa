#include "telescope/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/error.hpp"

namespace obscorr::telescope {

namespace {
constexpr char kMagic[8] = {'O', 'B', 'S', 'C', 'T', 'R', 'C', '1'};
constexpr std::uint64_t kCountPlaceholder = ~0ULL;
// Replay batch size: the generator's default emission buffer (64 KiB).
constexpr std::uint64_t kReplayBatchPackets = 8192;
}  // namespace

struct TraceWriter::Impl {
  std::ofstream os;
  bool closed = false;
  std::vector<std::uint32_t> pairs;  // write() staging: {src, dst} per packet
};

TraceWriter::TraceWriter(const std::string& path) : impl_(std::make_unique<Impl>()) {
  impl_->os.open(path, std::ios::binary);
  OBSCORR_REQUIRE(impl_->os.is_open(), "TraceWriter: cannot open " + path);
  impl_->os.write(kMagic, sizeof kMagic);
  impl_->os.write(reinterpret_cast<const char*>(&kCountPlaceholder), sizeof kCountPlaceholder);
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::write(std::span<const Packet> packets) {
  OBSCORR_REQUIRE(!impl_->closed, "TraceWriter: write after close");
  std::vector<std::uint32_t>& pairs = impl_->pairs;
  pairs.clear();
  for (const Packet& p : packets) {
    pairs.push_back(p.src.value());
    pairs.push_back(p.dst.value());
  }
  impl_->os.write(reinterpret_cast<const char*>(pairs.data()),
                  static_cast<std::streamsize>(pairs.size() * sizeof(std::uint32_t)));
  count_ += packets.size();
}

bool TraceWriter::close() {
  if (!impl_->closed) {
    impl_->closed = true;
    // Back-patch the packet count. No exceptions here: close() also runs
    // from the destructor, where throwing would terminate.
    impl_->os.seekp(sizeof kMagic, std::ios::beg);
    impl_->os.write(reinterpret_cast<const char*>(&count_), sizeof count_);
    impl_->os.close();
  }
  return !impl_->os.fail();
}

std::uint64_t replay_trace(const std::string& path, const PacketBatchSink& sink) {
  std::ifstream is(path, std::ios::binary);
  OBSCORR_REQUIRE(is.is_open(), "replay_trace: cannot open " + path);
  char magic[8] = {};
  is.read(magic, sizeof magic);
  OBSCORR_REQUIRE(is.good() && std::memcmp(magic, kMagic, sizeof kMagic) == 0,
                  "replay_trace: bad magic in " + path);
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof count);
  OBSCORR_REQUIRE(is.good() && count != kCountPlaceholder,
                  "replay_trace: unfinalized or truncated header in " + path);
  std::vector<std::uint32_t> pairs;
  std::vector<Packet> batch;
  for (std::uint64_t done = 0; done < count;) {
    const auto n = static_cast<std::size_t>(std::min(count - done, kReplayBatchPackets));
    pairs.resize(2 * n);
    const auto bytes = static_cast<std::streamsize>(pairs.size() * sizeof(std::uint32_t));
    is.read(reinterpret_cast<char*>(pairs.data()), bytes);
    OBSCORR_REQUIRE(is.gcount() == bytes, "replay_trace: truncated record in " + path);
    batch.resize(n);
    for (std::size_t i = 0; i < n; ++i) batch[i] = {Ipv4(pairs[2 * i]), Ipv4(pairs[2 * i + 1])};
    sink(batch);
    done += n;
  }
  // No trailing garbage allowed.
  char extra;
  is.read(&extra, 1);
  OBSCORR_REQUIRE(is.eof(), "replay_trace: trailing bytes after " + std::to_string(count) +
                                " packets in " + path);
  return count;
}

std::uint64_t record_trace(const std::string& path,
                           const std::function<void(const PacketBatchSink&)>& producer) {
  TraceWriter writer(path);
  producer([&](std::span<const Packet> batch) { writer.write(batch); });
  OBSCORR_REQUIRE(writer.close(), "record_trace: cannot write " + path);
  return writer.count();
}

}  // namespace obscorr::telescope
