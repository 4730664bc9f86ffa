/// Quickstart: build a hypersparse traffic matrix from packets, compute
/// every Table II network quantity, partition it into the Fig. 1
/// quadrants, and convert a reduction to a D4M associative array.
///
///   $ ./quickstart
///
/// This is the five-minute tour of the public API; see darknet_monitor
/// and cross_observatory for the full instruments.

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string_view>
#include <vector>

#include "common/ipv4.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"
#include "d4m/gbl_bridge.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/quantities.hpp"
#include "gbl/sparse_vec.hpp"
#include "telescope/quadrants.hpp"

int main() {
  using namespace obscorr;

  // 1. Collect packets as COO tuples. The matrix lives in the full
  //    2^32 x 2^32 IPv4 x IPv4 space; a packet from s to d adds (s,d,1).
  Rng rng(42);
  std::vector<gbl::Tuple> packets;
  const Ipv4Prefix monitored(Ipv4(77, 0, 0, 0), 8);  // "our" network
  for (int i = 0; i < 100000; ++i) {
    const Ipv4 src(rng.next_u32());
    const Ipv4 dst(monitored.at(rng.uniform_u64(1 << 12)));
    packets.push_back({src.value(), dst.value(), 1.0});
  }
  // The paper's example: 3 packets from 1.1.1.1 to 2.2.2.2.
  for (int i = 0; i < 3; ++i) {
    packets.push_back({Ipv4(1, 1, 1, 1).value(), Ipv4(2, 2, 2, 2).value(), 1.0});
  }

  // 2. Build the hypersparse DCSR matrix (sort + duplicate accumulation).
  const gbl::DcsrMatrix traffic = gbl::DcsrMatrix::from_tuples(std::move(packets));
  std::cout << "A(1.1.1.1, 2.2.2.2) = " << traffic.at(16843009u, 33686018u) << "\n\n";

  // 3. Every Table II network quantity in one call.
  const gbl::AggregateQuantities q = gbl::aggregate_quantities(traffic);
  TextTable table("Table II network quantities");
  table.set_header({"quantity", "value"});
  table.add_row({"valid packets (1' A 1)", fmt_count(static_cast<std::uint64_t>(q.valid_packets))});
  table.add_row({"unique links (1' |A|0 1)", fmt_count(q.unique_links)});
  table.add_row({"max link packets (max A)", fmt_double(q.max_link_packets, 0)});
  table.add_row({"unique sources (||A 1||0)", fmt_count(q.unique_sources)});
  table.add_row({"max source packets (max A 1)", fmt_double(q.max_source_packets, 0)});
  table.add_row({"max source fan-out (max |A|0 1)", fmt_double(q.max_source_fanout, 0)});
  table.add_row({"unique destinations", fmt_count(q.unique_destinations)});
  table.add_row({"max destination packets", fmt_double(q.max_destination_packets, 0)});
  table.add_row({"max destination fan-in", fmt_double(q.max_destination_fanin, 0)});
  table.print(std::cout);

  // 4. Fig. 1 quadrants relative to the monitored prefix.
  const auto quadrants = telescope::partition_quadrants(traffic, monitored);
  std::cout << "\next->int packets: " << quadrants.external_to_internal.reduce_sum()
            << "  (ext->ext: " << quadrants.external_to_external.reduce_sum() << ")\n";

  // 5. Reduce to per-source packets and convert to a D4M associative
  //    array keyed by dotted-quad strings — the correlation currency.
  //    Its one column holds row r's packets at values()[row_ptr()[r]].
  const gbl::SparseVec per_source = traffic.reduce_rows();
  const d4m::AssocArray sources =
      d4m::from_addresses(per_source.indices(), per_source.values(), "packets");
  const auto keys = sources.row_keys();
  const auto it = std::lower_bound(keys.begin(), keys.end(), std::string_view("1.1.1.1"));
  const bool seen = it != keys.end() && *it == "1.1.1.1";
  const auto r = static_cast<std::size_t>(it - keys.begin());
  std::cout << "D4M rows: " << keys.size() << ", packets from 1.1.1.1: "
            << (seen ? sources.values()[sources.row_ptr()[r]] : 0.0) << '\n';
  return 0;
}
