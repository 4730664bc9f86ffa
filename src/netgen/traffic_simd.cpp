/// \file traffic_simd.cpp
/// AVX2 variant of the per-shard packet ingest loop. The emitted packet
/// stream is bit-identical to `stream_shard_scalar` on any input because
/// every RNG draw happens on the scalar generators in exactly the
/// reference order:
///
///   - source stream (`rng`): per packet, bernoulli -> Lemire slot ->
///     acceptance uniform, drawn scalar while *collecting* a batch of
///     valid-packet candidates;
///   - destination stream (`dst_rng`): drawn scalar while *emitting* the
///     batch, one packet at a time in generation order (it is a separate
///     stream, so deferring its draws past the batched source draws
///     cannot change either sequence).
///
/// What vectorizes is the pure lookup work between those draws: the alias
/// acceptance (`uniform() < prob[slot]`) becomes a gathered compare, the
/// alias redirect a gathered blend, and the source-ip lookup a gather
/// from the plan's flat `src_ips` array instead of a strided walk over
/// population records. The u64 -> double conversion of the acceptance
/// uniform reproduces `(next() >> 11) * 0x1.0p-53` exactly: the 53-bit
/// integer is split into a 52-bit mantissa part plus the top bit (both
/// exactly representable), summed (exact: the total is an integer below
/// 2^53), and scaled by a power of two (exact).
///
/// A legitimate-noise packet ends the batch early: its source draw is
/// taken immediately (keeping the source-stream order), its destination
/// draw after the batch flushes (keeping the destination-stream order).

#include "netgen/traffic.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/prng.hpp"

#if defined(__x86_64__)

#include <immintrin.h>

namespace obscorr::netgen {

namespace {

/// Valid-packet candidates resolved per SIMD pass. Small enough that the
/// staging arrays live in L1; large enough to amortize the vector setup.
constexpr std::size_t kIngestBatch = 128;

}  // namespace

__attribute__((target("avx2"))) TrafficGenerator::ShardStats TrafficGenerator::stream_shard_avx2(
    const WindowPlan& plan, std::uint64_t shard_valid_count, std::uint64_t salt,
    std::uint64_t shard, ShardScratch& scratch, const BatchSink& sink,
    std::size_t batch_packets) const {
  const std::vector<std::uint32_t>& active = plan.active;
  const std::uint64_t month = static_cast<std::uint64_t>(plan.month);
  const std::uint64_t stream_offset = shard * kShardStreamGamma;

  scratch.stamps_.resize(active.size());
  scratch.states_.resize(active.size());
  ++scratch.epoch_;
  const std::uint64_t epoch = scratch.epoch_;

  Rng rng(population_.config().seed,
          std::uint64_t{0x300000000} + month * std::uint64_t{0x10001} + salt + stream_offset);
  Rng dst_rng(population_.config().seed,
              std::uint64_t{0xA00000000} + month * std::uint64_t{0x10001} + salt + stream_offset);

  const std::uint64_t dark_size = config_.darkspace.size();
  const std::uint64_t block = std::min<std::uint64_t>(256, dark_size);
  std::vector<Packet>& buffer = scratch.buffer_;
  buffer.clear();
  buffer.reserve(batch_packets);

  const double* prob = plan.alias.probs().data();
  const std::uint32_t* alias = plan.alias.aliases().data();
  const std::uint32_t* src_ips = plan.src_ips.data();
  const std::uint64_t n_active = active.size();

  ShardStats st;
  alignas(32) std::uint64_t u_raw[kIngestBatch];  // acceptance draw, raw next()
  alignas(32) std::uint32_t slot[kIngestBatch];   // Lemire slot into the alias table
  alignas(32) std::uint32_t pick[kIngestBatch];   // resolved active-set index
  alignas(32) std::uint32_t src[kIngestBatch];    // gathered source ip

  const auto push = [&](const Packet& p) {
    buffer.push_back(p);
    ++st.emitted;
    if (buffer.size() == batch_packets) {
      sink(buffer);
      buffer.clear();
    }
  };

  const __m256i mant_mask = _mm256_set1_epi64x((1LL << 52) - 1);
  const __m256i exp_bits = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  const __m256i pack_even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  // All-lanes masks for the gathers: GCC's unmasked gather intrinsics
  // expand through _mm256_undefined_pd and trip -Wmaybe-uninitialized.
  const __m256d all_pd = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m128i all_epi32 = _mm_set1_epi32(-1);

  while (st.valid < shard_valid_count) {
    // Collect: scalar source-stream draws in exact reference order. Never
    // draw past the shard quota — the scalar loop would not.
    std::size_t n = 0;
    bool legit_pending = false;
    Packet legit;
    const std::uint64_t room = shard_valid_count - st.valid;
    const std::size_t cap = room < kIngestBatch ? static_cast<std::size_t>(room) : kIngestBatch;
    while (n < cap) {
      if (rng.bernoulli(config_.legit_fraction)) {
        legit.src = config_.legit_prefix.at(rng.uniform_u64(config_.legit_prefix.size()));
        legit_pending = true;
        break;
      }
      slot[n] = static_cast<std::uint32_t>(rng.uniform_u64(n_active));
      u_raw[n] = rng.next();
      ++n;
    }

    // Resolve: gathered acceptance compare + alias blend + source-ip
    // gather, four candidates per step.
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      const __m128i idx = _mm_load_si128(reinterpret_cast<const __m128i*>(slot + k));
      const __m256d p4 = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), prob, idx, all_pd, 8);
      const __m256i x53 =
          _mm256_srli_epi64(_mm256_load_si256(reinterpret_cast<const __m256i*>(u_raw + k)), 11);
      const __m256d dlo = _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(x53, mant_mask), exp_bits)),
          two52);
      const __m256d dhi = _mm256_and_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_srli_epi64(x53, 52), one64)), two52);
      const __m256d u4 = _mm256_mul_pd(_mm256_add_pd(dlo, dhi), scale);
      const __m256d take = _mm256_cmp_pd(u4, p4, _CMP_LT_OQ);
      const __m128i a4 = _mm_mask_i32gather_epi32(
          _mm_setzero_si128(), reinterpret_cast<const int*>(alias), idx, all_epi32, 4);
      const __m128i take32 = _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(take), pack_even));
      const __m128i pick4 = _mm_blendv_epi8(a4, idx, take32);
      const __m128i src4 = _mm_mask_i32gather_epi32(
          _mm_setzero_si128(), reinterpret_cast<const int*>(src_ips), pick4, all_epi32, 4);
      _mm_store_si128(reinterpret_cast<__m128i*>(pick + k), pick4);
      _mm_store_si128(reinterpret_cast<__m128i*>(src + k), src4);
    }
    for (; k < n; ++k) {
      const double u = static_cast<double>(u_raw[k] >> 11) * 0x1.0p-53;
      const std::uint32_t s = slot[k];
      pick[k] = u < prob[s] ? s : alias[s];
      src[k] = src_ips[pick[k]];
    }

    // Emit: scalar, in generation order — scan-state updates and every
    // destination-stream draw happen exactly as the reference path does.
    for (std::size_t m = 0; m < n; ++m) {
      Packet p;
      p.src = Ipv4(src[m]);
      const std::size_t source_index = active[pick[m]];
      if (scratch.stamps_[pick[m]] != epoch) {
        Rng init(population_.config().seed,
                 std::uint64_t{0x900000000} + source_index * 31 + salt + stream_offset);
        ShardScratch::ScanState& s = scratch.states_[pick[m]];
        s.cursor = init.uniform_u64(dark_size);
        s.subnet_base = (init.uniform_u64(dark_size) / block) * block;
        scratch.stamps_[pick[m]] = epoch;
        ++st.fresh_source_states;
      }
      switch (plan.strategies[pick[m]]) {
        case ScanStrategy::kUniform:
          p.dst = config_.darkspace.at(dst_rng.uniform_u64(dark_size));
          break;
        case ScanStrategy::kSequential: {
          ShardScratch::ScanState& s = scratch.states_[pick[m]];
          p.dst = config_.darkspace.at(s.cursor);
          s.cursor = s.cursor + 1 == dark_size ? 0 : s.cursor + 1;
          break;
        }
        case ScanStrategy::kSubnet:
          p.dst = config_.darkspace.at(scratch.states_[pick[m]].subnet_base +
                                       dst_rng.uniform_u64(block));
          break;
      }
      ++st.valid;
      push(p);
    }
    if (legit_pending) {
      legit.dst = config_.darkspace.at(dst_rng.uniform_u64(dark_size));
      push(legit);
    }
  }
  if (!buffer.empty()) sink(buffer);
  return st;
}

}  // namespace obscorr::netgen

#else  // !defined(__x86_64__)

namespace obscorr::netgen {

TrafficGenerator::ShardStats TrafficGenerator::stream_shard_avx2(
    const WindowPlan& plan, std::uint64_t shard_valid_count, std::uint64_t salt,
    std::uint64_t shard, ShardScratch& scratch, const BatchSink& sink,
    std::size_t batch_packets) const {
  return stream_shard_scalar(plan, shard_valid_count, salt, shard, scratch, sink, batch_packets);
}

}  // namespace obscorr::netgen

#endif
