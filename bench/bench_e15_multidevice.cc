// bench_e15_multidevice - Experiment E15 (extension): multidevice routing.
//
// The collection's first paper ("Multiple Devices unter MPICH") builds
// exactly this: shared memory for local tasks, the high-speed network across
// nodes, one message-passing API over both, with a Connectiontable deciding
// per peer. This bench measures what that routing buys: intra-node messages
// over the shm device vs. the same messages forced through the NIC loopback
// vs. genuine cross-node traffic.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "mp/comm.h"
#include "util/table.h"

namespace vialock {
namespace {

struct Rig {
  explicit Rig(bool shm_local) {
    const auto a = cluster.add_node(bench::eval_node(via::PolicyKind::Kiobuf));
    const auto b = cluster.add_node(bench::eval_node(via::PolicyKind::Kiobuf));
    mp::Comm::Config cfg;
    cfg.shm_for_local = shm_local;
    comm = std::make_unique<mp::Comm>(
        cluster, std::vector<via::NodeId>{a, a, b}, cfg);
    if (!ok(comm->init())) std::abort();
    std::vector<std::byte> data(1 << 20, std::byte{0x44});
    if (!ok(comm->stage(0, 0, data))) std::abort();
    // Warm-up: a link uses its eager_credits slots round-robin, and a slot's
    // first message pays a first-touch fault. One message per slot on every
    // path keeps that one-off cost out of the timed rows.
    for (const mp::Rank to : {1u, 2u})
      for (std::uint32_t i = 0; i < cfg.eager_credits; ++i)
        (void)message(to, 64);
  }

  Nanos message(mp::Rank to, std::uint32_t len) {
    static std::int32_t tag = 1000;
    ++tag;
    Clock& clock = cluster.clock();
    const auto r = comm->irecv(to, 0, tag, 0, 1 << 20);
    const Nanos t0 = clock.now();
    const auto s = comm->isend(0, to, tag, 0, len);
    if (!comm->wait(r) || !comm->wait(s)) std::abort();
    return clock.now() - t0;
  }

  Nanos median(mp::Rank to, std::uint32_t len) {
    std::vector<Nanos> t;
    for (int i = 0; i < 5; ++i) t.push_back(message(to, len));
    std::sort(t.begin(), t.end());
    return t[2];
  }

  via::Cluster cluster;
  std::unique_ptr<mp::Comm> comm;
};

}  // namespace
}  // namespace vialock

int main(int argc, char** argv) {
  using namespace vialock;
  const bench::BenchFlags flags(argc, argv);
  std::cout << "E15 (extension): multidevice routing - intra-node shared\n"
            << "memory vs. NIC loopback vs. cross-node fabric (ranks 0,1 on\n"
            << "node A; rank 2 on node B; median of 5 after one warm-up\n"
            << "message per link slot)\n\n";
  Rig with_shm(/*shm_local=*/true);
  Rig nic_only(/*shm_local=*/false);

  Table table({"message", "local via shm", "local via NIC", "cross-node",
               "shm speedup (local)"});
  for (const std::uint32_t len :
       {64u, 1024u, 4096u, 64u * 1024, 512u * 1024}) {
    const Nanos shm = with_shm.median(1, len);
    const Nanos loop = nic_only.median(1, len);
    const Nanos cross = with_shm.median(2, len);
    table.row({Table::bytes(len), Table::nanos(shm), Table::nanos(loop),
               Table::nanos(cross),
               Table::fp(static_cast<double>(loop) / static_cast<double>(shm),
                         2) + "x"});
  }
  table.print();
  bench::JsonReport report("E15", "multidevice routing");
  report.add_table("routing", table);
  report.write_if(flags);
  std::cout << "\nShape: the shm device wins intra-node at every size (no\n"
               "doorbells, no DMA, no wire). Cross-node traffic is\n"
               "unaffected by the routing choice.\n";
  return report.compare_if(flags);
}
