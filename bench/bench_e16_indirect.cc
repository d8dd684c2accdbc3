// bench_e16_indirect - Experiment E16 (extension): the cost of indirect
// communication.
//
// The multidevice paper closes its section 3.4 with a warning: the mechanism
// "is very elaborate... besides increased effort on source and destination
// nodes it also creates load on the intermediate node - necessity and sense
// should be checked before using indirect communication". This bench does
// that check: latency of a direct link vs. one and two intermediate hops,
// plus the forwarding load the intermediates absorb.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "mp/comm.h"
#include "util/table.h"

namespace vialock {
namespace {

struct Topo {
  const char* name;
  std::uint32_t ranks;
  std::vector<std::pair<mp::Rank, mp::Rank>> blocked;
  mp::Rank dest;
};

Nanos measure(const Topo& topo, std::uint32_t len, std::uint64_t* forwards) {
  via::Cluster cluster;
  std::vector<via::NodeId> nodes;
  for (std::uint32_t i = 0; i < topo.ranks; ++i)
    nodes.push_back(cluster.add_node(bench::eval_node(via::PolicyKind::Kiobuf)));
  mp::Comm::Config cfg;
  cfg.no_direct_link = topo.blocked;
  mp::Comm comm(cluster, nodes, cfg);
  if (!ok(comm.init())) std::abort();
  std::vector<std::byte> data(len, std::byte{0x21});
  if (!ok(comm.stage(0, 0, data))) std::abort();

  // Warm-up round, then median of 5.
  std::vector<Nanos> times;
  for (int i = 0; i < 6; ++i) {
    const auto r = comm.irecv(topo.dest, 0, 10 + i, 0, 64 * 1024);
    const Nanos t0 = cluster.clock().now();
    const auto s = comm.isend(0, topo.dest, 10 + i, 0, len);
    if (!comm.wait(r) || !comm.wait(s)) std::abort();
    if (i > 0) times.push_back(cluster.clock().now() - t0);
  }
  std::sort(times.begin(), times.end());
  if (forwards) *forwards = comm.stats().indirect_forwards;
  return times[times.size() / 2];
}

}  // namespace
}  // namespace vialock

int main(int argc, char** argv) {
  using namespace vialock;
  const bench::BenchFlags flags(argc, argv);
  std::cout
      << "E16 (extension): indirect communication cost (multidevice paper,\n"
      << "section 3.4 - \"necessity and sense should be checked\")\n\n";
  const std::vector<Topo> topologies = {
      {"direct 0->1", 2, {}, 1},
      {"1 hop  0->(1)->2", 3, {{0, 2}}, 2},
      {"2 hops 0->(1)->(2)->3", 4, {{0, 2}, {0, 3}, {1, 3}}, 3},
  };
  Table table({"route", "64 B", "1 KB", "4 KB", "forwards (incl. ACKs)"});
  Nanos two_hops_64 = 0, two_hops_4k = 0;  // the 4-rank route, last row
  for (const auto& topo : topologies) {
    std::uint64_t forwards = 0;
    const Nanos t64 = measure(topo, 64, nullptr);
    const Nanos t1k = measure(topo, 1024, nullptr);
    const Nanos t4k = measure(topo, 4096, &forwards);
    table.row({topo.name, Table::nanos(t64), Table::nanos(t1k),
               Table::nanos(t4k), Table::num(forwards)});
    two_hops_64 = t64;
    two_hops_4k = t4k;
  }
  table.print();
  bench::JsonReport report("E16", "indirect communication cost");
  report.add_table("routes", table);
  // Scalars for the --compare regression gate.
  report.metric("two_hops_64b_ns", std::uint64_t{two_hops_64})
      .metric("two_hops_4k_ns", std::uint64_t{two_hops_4k});
  report.write_if(flags);
  std::cout << "\nShape: each intermediate hop adds roughly one full wire +\n"
               "store-and-forward copy to the latency, and the ACK chain\n"
               "doubles the forwarding load on intermediates - the overhead\n"
               "the paper says to weigh before enabling the feature.\n";
  return report.compare_if(flags);
}
