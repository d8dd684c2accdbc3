// cluster_allreduce.cpp - a four-node iterative-solver skeleton: the kind of
// FEM/CFD message-passing workload the SFB 393 collection exists to serve.
// Each rank updates a local vector, the cluster allreduces the residual, and
// a broadcast ships updated coefficients - all over reliably locked VIA
// memory, through the mp collectives.
//
//   ./build/examples/cluster_allreduce
#include <cstdio>
#include <span>
#include <vector>

#include "mp/collectives.h"
#include "util/rng.h"

using namespace vialock;

int main() {
  constexpr mp::Rank kRanks = 4;
  constexpr std::uint32_t kLocal = 64;  // u64s per rank
  constexpr int kIters = 10;

  via::Cluster cluster;
  std::vector<via::NodeId> nodes;
  for (mp::Rank r = 0; r < kRanks; ++r) {
    via::NodeSpec spec;
    spec.policy = via::PolicyKind::Kiobuf;
    nodes.push_back(cluster.add_node(spec));
  }
  mp::Comm comm(cluster, nodes);
  if (!ok(comm.init())) {
    std::puts("comm init failed");
    return 1;
  }

  Rng rng(11);
  std::vector<std::uint64_t> local(kLocal);

  for (int iter = 0; iter < kIters; ++iter) {
    // Each rank computes a local contribution...
    for (mp::Rank r = 0; r < kRanks; ++r) {
      for (auto& v : local) v = rng.below(1000);
      if (!ok(comm.stage(r, 0, std::as_bytes(std::span{local})))) return 1;
    }
    // ...the residual vector is allreduced (scratch right behind it)...
    if (!ok(mp::allreduce_sum(comm, 0, kLocal, kLocal * 8))) return 1;
    // ...rank 0 "decides" and broadcasts an 8 KB coefficient update...
    if (!ok(mp::broadcast(comm, 0, 64 * 1024, 8 * 1024))) return 1;
    // ...and everyone synchronises before the next iteration.
    if (!ok(mp::barrier(comm, 96 * 1024))) return 1;
  }

  // Sanity: all ranks hold the same reduced vector.
  std::vector<std::uint64_t> v0(kLocal);
  std::vector<std::uint64_t> vr(kLocal);
  if (!ok(comm.fetch(0, 0, std::as_writable_bytes(std::span{v0})))) return 1;
  for (mp::Rank r = 1; r < kRanks; ++r) {
    if (!ok(comm.fetch(r, 0, std::as_writable_bytes(std::span{vr})))) return 1;
    if (vr != v0) {
      std::printf("rank %u diverged!\n", r);
      return 1;
    }
  }

  const mp::CommStats& st = comm.stats();
  std::printf("cluster_allreduce OK: %d iterations on %u ranks\n", kIters,
              kRanks);
  std::printf("  p2p messages : %llu (%llu eager, %llu rendezvous)\n",
              static_cast<unsigned long long>(st.eager_sends +
                                              st.rendezvous_sends),
              static_cast<unsigned long long>(st.eager_sends),
              static_cast<unsigned long long>(st.rendezvous_sends));
  std::printf("  collectives  : %d allreduces, %d broadcasts, %d barriers\n",
              kIters, kIters, kIters);
  std::printf("  virtual time : %.2f ms\n",
              static_cast<double>(cluster.clock().now()) / 1e6);
  return 0;
}
