#include "telescope/telescope.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::telescope {
namespace {

TelescopeConfig small_config() {
  TelescopeConfig c;
  c.darkspace = Ipv4Prefix(Ipv4(77, 0, 0, 0), 16);
  c.block_log2 = 6;
  return c;
}

TEST(TelescopeTest, AcceptsDarkspaceTrafficOnly) {
  ThreadPool pool(2);
  Telescope scope(small_config(), pool);
  EXPECT_TRUE(scope.capture({Ipv4(1, 2, 3, 4), Ipv4(77, 0, 9, 9)}));
  EXPECT_FALSE(scope.capture({Ipv4(1, 2, 3, 4), Ipv4(78, 0, 0, 1)}));  // outside darkspace
  EXPECT_FALSE(scope.capture({Ipv4(1, 2, 3, 4), Ipv4(77, 1, 0, 1)}));  // outside /16
  EXPECT_EQ(scope.valid_packets(), 1u);
  EXPECT_EQ(scope.discarded_packets(), 2u);
}

TEST(TelescopeTest, DiscardsLegitimateSources) {
  ThreadPool pool(2);
  Telescope scope(small_config(), pool);
  EXPECT_FALSE(scope.capture({Ipv4(10, 0, 0, 1), Ipv4(77, 0, 0, 1)}));
  EXPECT_EQ(scope.valid_packets(), 0u);
  EXPECT_EQ(scope.discarded_packets(), 1u);
}

TEST(TelescopeTest, MatrixIsAnonymizedButCountsPreserved) {
  ThreadPool pool(2);
  Telescope scope(small_config(), pool);
  const Ipv4 src(1, 2, 3, 4);
  const Ipv4 dst(77, 0, 1, 2);
  for (int i = 0; i < 5; ++i) scope.capture({src, dst});
  const gbl::DcsrMatrix m = scope.finish_window();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.reduce_sum(), 5.0);
  // The stored indices are the anonymized ids, not the raw ones.
  EXPECT_EQ(m.at(src.value(), dst.value()), 0.0);
  EXPECT_EQ(m.at(scope.anonymize(src).value(), scope.anonymize(dst).value()), 5.0);
}

TEST(TelescopeTest, CaptureBlockMatchesPerPacketCapture) {
  // The batched ingest must be observationally identical to per-packet
  // capture: same matrix, same valid/discarded counters, same dictionary
  // behavior — only the internal path differs.
  ThreadPool pool(2);
  Telescope per_packet(small_config(), pool);
  Telescope batched(small_config(), pool);

  Rng rng(31);
  std::vector<Packet> packets;
  for (int i = 0; i < 5000; ++i) {
    // Mix of darkspace hits, out-of-darkspace traffic, and legit sources.
    const Ipv4 src = (i % 7 == 0) ? Ipv4(10, 0, 0, 1) : Ipv4(rng.next_u32() | 1u);
    const Ipv4 dst = (i % 11 == 0) ? Ipv4(78, 1, 2, 3)
                                   : Ipv4(Ipv4(77, 0, 0, 0).value() | (rng.next_u32() & 0xFFFF));
    packets.push_back({src, dst});
  }
  std::uint64_t accepted_ref = 0;
  for (const Packet& p : packets) {
    if (per_packet.capture(p)) ++accepted_ref;
  }
  std::uint64_t accepted = 0;
  for (std::size_t i = 0; i < packets.size(); i += 333) {
    accepted += batched.capture_block(
        std::span<const Packet>(packets).subspan(i, std::min<std::size_t>(333, packets.size() - i)));
  }
  EXPECT_EQ(accepted, accepted_ref);
  EXPECT_EQ(batched.valid_packets(), per_packet.valid_packets());
  EXPECT_EQ(batched.discarded_packets(), per_packet.discarded_packets());
  EXPECT_EQ(batched.finish_window(), per_packet.finish_window());
}

TEST(TelescopeTest, DeanonymizeInvertsObservedSources) {
  ThreadPool pool(2);
  Telescope scope(small_config(), pool);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Ipv4 src(rng.next_u32());
    if (src.octet(0) == 10 || src.octet(0) == 77) src = Ipv4(1, 2, 3, 4);
    scope.capture({src, Ipv4(Ipv4(77, 0, 0, 0).value() | (rng.next_u32() & 0xFFFF))});
    EXPECT_EQ(scope.deanonymize(scope.anonymize(src)), src);
  }
  EXPECT_THROW(scope.deanonymize(Ipv4(123456u)), std::invalid_argument);
}

TEST(TelescopeTest, AnonymizedDarkspaceIsAConsistentPrefix) {
  // Prefix preservation: every anonymized darkspace destination falls
  // inside the anonymized darkspace prefix.
  ThreadPool pool(2);
  Telescope scope(small_config(), pool);
  const Ipv4Prefix anon_dark = scope.anonymized_darkspace();
  EXPECT_EQ(anon_dark.length(), 16);
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const Ipv4 dst(Ipv4(77, 0, 0, 0).value() | (rng.next_u32() & 0xFFFF));
    EXPECT_TRUE(anon_dark.contains(scope.anonymize(dst))) << dst.to_string();
  }
  // And non-darkspace sources stay outside it.
  for (int i = 0; i < 300; ++i) {
    Ipv4 src(rng.next_u32());
    if (Ipv4Prefix(Ipv4(77, 0, 0, 0), 16).contains(src)) continue;
    EXPECT_FALSE(anon_dark.contains(scope.anonymize(src))) << src.to_string();
  }
}

TEST(TelescopeTest, WindowResetsButDictionaryPersists) {
  ThreadPool pool(2);
  Telescope scope(small_config(), pool);
  const Ipv4 src(5, 5, 5, 5);
  scope.capture({src, Ipv4(77, 0, 0, 1)});
  const auto first = scope.finish_window();
  EXPECT_EQ(first.reduce_sum(), 1.0);
  EXPECT_EQ(scope.valid_packets(), 0u);
  // Dictionary survives across windows (the operator keeps the key).
  EXPECT_EQ(scope.deanonymize(scope.anonymize(src)), src);
  scope.capture({src, Ipv4(77, 0, 0, 2)});
  EXPECT_EQ(scope.finish_window().reduce_sum(), 1.0);
}

TEST(TelescopeTest, ConstantPacketWindowAcrossBlocks) {
  // Stream more packets than one block; matrix total equals the stream.
  ThreadPool pool(2);
  TelescopeConfig cfg = small_config();
  cfg.block_log2 = 5;  // tiny blocks force many hierarchical merges
  Telescope scope(cfg, pool);
  Rng rng(11);
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const Ipv4 src(Ipv4(1, 0, 0, 0).value() + static_cast<std::uint32_t>(rng.uniform_u64(500)));
    const Ipv4 dst(Ipv4(77, 0, 0, 0).value() | static_cast<std::uint32_t>(rng.uniform_u64(100)));
    scope.capture({src, dst});
  }
  EXPECT_EQ(scope.finish_window().reduce_sum(), static_cast<double>(n));
}

TEST(TelescopeTest, AnonymizeTimeIsClockedOnlyUnderSpans) {
  // `telescope.anonymize_ns` sums CryptoPAN time on cache misses, and only
  // when spans are on: counters alone (what `serve` always arms) read no
  // clock per miss.
  ThreadPool pool(2);
  std::vector<Packet> packets;
  for (std::uint32_t i = 0; i < 200; ++i) {
    packets.push_back({Ipv4(Ipv4(1, 0, 0, 0).value() + i), Ipv4(77, 0, 0, 1)});
  }
  const auto capture_at = [&](obs::Level level) {
    obs::reset();
    obs::set_level(level);
    Telescope scope(small_config(), pool);
    scope.capture_block(packets);
    obs::set_level(obs::Level::kOff);
    return std::pair{obs::counter("telescope.anon_cache_misses").value(),
                     obs::counter("telescope.anonymize_ns").value()};
  };
  const auto [counted_misses, counted_ns] = capture_at(obs::Level::kCounters);
  EXPECT_EQ(counted_misses, 201u);  // 200 sources and one destination
  EXPECT_EQ(counted_ns, 0u);
  const auto [timed_misses, timed_ns] = capture_at(obs::Level::kFull);
  EXPECT_EQ(timed_misses, 201u);
  EXPECT_GT(timed_ns, 0u);
  obs::reset();
}

TEST(TelescopeTest, SameSeedSameAnonymization) {
  ThreadPool pool(2);
  Telescope a(small_config(), pool);
  Telescope b(small_config(), pool);
  EXPECT_EQ(a.anonymize(Ipv4(9, 9, 9, 9)), b.anonymize(Ipv4(9, 9, 9, 9)));
  TelescopeConfig other = small_config();
  other.cryptopan_seed = 999;
  Telescope c(other, pool);
  EXPECT_NE(a.anonymize(Ipv4(9, 9, 9, 9)), c.anonymize(Ipv4(9, 9, 9, 9)));
}

}  // namespace
}  // namespace obscorr::telescope
