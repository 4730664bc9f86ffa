/// Trusted data sharing: demonstrates the paper's §I anonymization
/// workflow — CryptoPAN prefix preservation, permutation-invariance of
/// the Table II statistics, sharing an anonymized associative array, and
/// "approach 1" deanonymization of a small result set by the data owner.
///
///   $ ./anonymize_share

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "common/table.hpp"
#include "crypt/cryptopan.hpp"
#include "d4m/gbl_bridge.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/quantities.hpp"

int main() {
  using namespace obscorr;

  // The data owner's secret key; never leaves this block in real life.
  const crypt::CryptoPan pan = crypt::CryptoPan::from_seed(0xCA1DA);

  // 1. Prefix preservation in action.
  TextTable demo("CryptoPAN: prefix-preserving anonymization");
  demo.set_header({"original", "anonymized"});
  for (const Ipv4 ip : {Ipv4(192, 168, 1, 1), Ipv4(192, 168, 1, 2), Ipv4(192, 168, 77, 9),
                        Ipv4(192, 169, 0, 1), Ipv4(8, 8, 8, 8)}) {
    demo.add_row({ip.to_string(), pan.anonymize(ip).to_string()});
  }
  demo.print(std::cout);
  std::cout << "note: 192.168.1.* share 24 anonymized prefix bits, 192.168.* share 16, ...\n\n";

  // 2. Permutation invariance: identical Table II statistics on raw and
  //    anonymized traffic matrices.
  Rng rng(3);
  std::vector<gbl::Tuple> raw, anon;
  for (int i = 0; i < 50000; ++i) {
    const std::uint32_t s = rng.next_u32();
    const std::uint32_t d = rng.next_u32();
    raw.push_back({s, d, 1.0});
    anon.push_back({pan.anonymize(Ipv4(s)).value(), pan.anonymize(Ipv4(d)).value(), 1.0});
  }
  const auto q_raw = gbl::aggregate_quantities(gbl::DcsrMatrix::from_tuples(std::move(raw)));
  const auto q_anon = gbl::aggregate_quantities(gbl::DcsrMatrix::from_tuples(std::move(anon)));
  std::cout << "unique sources raw/anon:      " << q_raw.unique_sources << " / "
            << q_anon.unique_sources << '\n'
            << "max source packets raw/anon:  " << q_raw.max_source_packets << " / "
            << q_anon.max_source_packets << '\n'
            << "=> statistics computed on shared anonymized matrices are exact\n\n";

  // 3. Interchange: share an anonymized result set as a D4M associative
  //    array, then have the owner deanonymize the few rows a partner asks
  //    about (trusted-sharing approach 1: small subset, low risk).
  std::vector<std::uint32_t> sources;
  std::vector<double> packets;
  for (int i = 0; i < 5; ++i) {
    sources.push_back(pan.anonymize(Ipv4(rng.next_u32())).value());
    packets.push_back(static_cast<double>(100 + i));
  }
  const d4m::AssocArray shared = d4m::from_addresses(sources, packets, "packets");
  std::cout << "anonymized result set shared with the partner:\n";
  for (std::size_t r = 0; r < shared.row_keys().size(); ++r) {
    for (std::uint64_t k = shared.row_ptr()[r]; k < shared.row_ptr()[r + 1]; ++k) {
      std::cout << shared.row_keys()[r] << '\t' << shared.col_keys()[shared.col_idx()[k]] << '\t'
                << shared.values()[k] << '\n';
    }
  }
  std::cout << '\n';
  std::cout << "a partner flags the brightest row; the owner looks it up in the\n"
               "anonymization dictionary and returns the true address out of band.\n";
  return 0;
}
