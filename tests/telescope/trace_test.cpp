#include "telescope/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <vector>

#include "common/prng.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::telescope {
namespace {

std::string temp_path(const std::string& name) { return ::testing::TempDir() + "/" + name; }

/// A sink that ignores every batch.
void ignore(std::span<const Packet>) {}

/// Every packet of a trace, in file order.
std::vector<Packet> replay_all(const std::string& path) {
  std::vector<Packet> out;
  replay_trace(path, [&](std::span<const Packet> b) { out.insert(out.end(), b.begin(), b.end()); });
  return out;
}

/// Write `n` copies of one packet.
void write_copies(TraceWriter& writer, const Packet& p, std::size_t n) {
  const std::vector<Packet> copies(n, p);
  writer.write(copies);
}

TEST(TraceTest, RoundTripPackets) {
  const std::string path = temp_path("trace_roundtrip.trc");
  Rng rng(1);
  std::vector<Packet> original;
  for (int i = 0; i < 5000; ++i) {
    original.push_back({Ipv4(rng.next_u32()), Ipv4(rng.next_u32())});
  }
  {
    // Uneven batches, including an empty one.
    TraceWriter writer(path);
    const std::span<const Packet> all(original);
    writer.write(all.subspan(0, 1));
    writer.write(all.subspan(1, 0));
    writer.write(all.subspan(1, 2999));
    writer.write(all.subspan(3000));
    EXPECT_EQ(writer.count(), original.size());
  }  // destructor finalizes
  EXPECT_EQ(replay_all(path), original);
}

TEST(TraceTest, EmptyTrace) {
  const std::string path = temp_path("trace_empty.trc");
  {
    TraceWriter writer(path);
    writer.close();
  }
  EXPECT_EQ(replay_trace(path, [](std::span<const Packet>) { FAIL() << "no batch expected"; }),
            0u);
}

TEST(TraceTest, WriteAfterCloseRejected) {
  const std::string path = temp_path("trace_closed.trc");
  TraceWriter writer(path);
  writer.close();
  EXPECT_THROW(write_copies(writer, {Ipv4(1u), Ipv4(2u)}, 1), std::invalid_argument);
}

TEST(TraceTest, CloseIsIdempotent) {
  const std::string path = temp_path("trace_idem.trc");
  TraceWriter writer(path);
  write_copies(writer, {Ipv4(1u), Ipv4(2u)}, 1);
  writer.close();
  writer.close();
  EXPECT_EQ(replay_trace(path, ignore), 1u);
}

TEST(TraceTest, RejectsMissingFile) {
  EXPECT_THROW(replay_trace(temp_path("nope.trc"), ignore), std::invalid_argument);
}

TEST(TraceTest, RejectsBadMagic) {
  const std::string path = temp_path("trace_badmagic.trc");
  std::ofstream(path, std::ios::binary) << "THIS-IS-NOT-A-TRACE-FILE";
  EXPECT_THROW(replay_trace(path, ignore), std::invalid_argument);
}

TEST(TraceTest, RejectsTruncatedRecords) {
  const std::string path = temp_path("trace_trunc.trc");
  {
    TraceWriter writer(path);
    write_copies(writer, {Ipv4(1u), Ipv4(2u)}, 10);
  }
  // Chop the last record in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary) << bytes.substr(0, bytes.size() - 4);
  EXPECT_THROW(replay_trace(path, ignore), std::invalid_argument);
}

TEST(TraceTest, RejectsTrailingGarbage) {
  const std::string path = temp_path("trace_trailing.trc");
  {
    TraceWriter writer(path);
    write_copies(writer, {Ipv4(1u), Ipv4(2u)}, 1);
  }
  std::ofstream(path, std::ios::binary | std::ios::app) << "junk";
  EXPECT_THROW(replay_trace(path, ignore), std::invalid_argument);
}

TEST(TraceTest, RecordHelperCapturesProducerOutput) {
  const std::string path = temp_path("trace_record.trc");
  std::vector<Packet> produced;
  for (int i = 0; i < 25; ++i) produced.push_back({Ipv4(static_cast<std::uint32_t>(i)), Ipv4(7u)});
  const std::uint64_t n = record_trace(path, [&](const PacketBatchSink& sink) {
    sink(std::span<const Packet>(produced).subspan(0, 10));
    sink(std::span<const Packet>(produced).subspan(10));
  });
  EXPECT_EQ(n, 25u);
  EXPECT_EQ(replay_all(path), produced);
}

TEST(TraceTest, ReplayedTraceProducesIdenticalTelescopeMatrix) {
  // Record a window, replay it into a second telescope, and expect the
  // same anonymized matrix — capture-from-archive equals capture-live.
  const std::string path = temp_path("trace_capture.trc");
  ThreadPool pool(2);
  TelescopeConfig cfg;
  cfg.darkspace = Ipv4Prefix(Ipv4(77, 0, 0, 0), 16);
  Telescope live(cfg, pool);
  Rng rng(9);
  std::vector<Packet> packets;
  for (int i = 0; i < 20000; ++i) {
    packets.push_back({Ipv4(rng.next_u32()),
                       Ipv4(Ipv4(77, 0, 0, 0).value() | (rng.next_u32() & 0xFFFF))});
  }
  for (const Packet& p : packets) live.capture(p);
  {
    TraceWriter writer(path);
    writer.write(packets);
  }
  Telescope replayed(cfg, pool);
  // 20000 packets replay as several batches.
  EXPECT_EQ(replay_trace(path, [&](std::span<const Packet> b) { replayed.capture_block(b); }),
            packets.size());
  EXPECT_EQ(replayed.finish_window(), live.finish_window());
}

}  // namespace
}  // namespace obscorr::telescope
