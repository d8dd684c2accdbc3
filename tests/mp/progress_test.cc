// progress_test.cc - the virtual-time cost of Comm::progress(). Every call
// makes one completion-queue poll (one PCI status read), however many VI
// links exist; a communicator with no VI link yet (shared memory only, or
// lazy pairs not created) pays nothing. The mixed run pins the final clock
// and counters of a workload that crosses every transport path, so any
// change to how progress charges or orders its polls shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../via/via_util.h"
#include "mp/comm.h"

namespace vialock::mp {
namespace {

via::NodeId add_host(via::Cluster& cluster) {
  return cluster.add_node(test::small_node(
      via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048));
}

/// Virtual ns one idle progress() call charges.
Nanos idle_cost(via::Cluster& cluster, Comm& comm) {
  const Nanos before = cluster.clock().now();
  comm.progress();
  return cluster.clock().now() - before;
}

TEST(MpProgress, IdleChargesOnePciReadAtAnyRankCount) {
  for (const int ranks : {2, 5, 32}) {
    via::Cluster cluster;
    std::vector<via::NodeId> nodes;
    for (int i = 0; i < ranks; ++i) nodes.push_back(add_host(cluster));
    Comm comm(cluster, nodes);
    ASSERT_TRUE(ok(comm.init()));
    // One VI pair per rank pair, but a single completion-queue poll.
    const Nanos read = cluster.costs().pci_reg_read;
    EXPECT_EQ(idle_cost(cluster, comm), read) << ranks << " ranks";
    EXPECT_EQ(idle_cost(cluster, comm), read) << ranks << " ranks";
  }
}

TEST(MpProgress, IdleShmLinksAddNothing) {
  via::Cluster cluster;
  const via::NodeId a = add_host(cluster);
  const via::NodeId b = add_host(cluster);
  const Nanos read = cluster.costs().pci_reg_read;
  {
    // Ranks 0-2 share host a (3 shm pairs); rank 3 reaches them over VIs.
    Comm comm(cluster, {a, a, a, b});
    ASSERT_TRUE(ok(comm.init()));
    EXPECT_EQ(idle_cost(cluster, comm), read);
  }
  {
    Comm comm(cluster, {b, b, b});  // shared memory only: no queue to poll
    ASSERT_TRUE(ok(comm.init()));
    EXPECT_EQ(idle_cost(cluster, comm), 0u);
  }
}

TEST(MpProgress, LazyPairsCountOnceTheyExist) {
  via::Cluster cluster;
  const via::NodeId a = add_host(cluster);
  const via::NodeId b = add_host(cluster);
  const via::NodeId c = add_host(cluster);
  Comm::Config cfg;
  cfg.lazy_links = true;
  Comm comm(cluster, {a, b, c, a}, cfg);
  ASSERT_TRUE(ok(comm.init()));
  const Nanos read = cluster.costs().pci_reg_read;
  EXPECT_EQ(idle_cost(cluster, comm), 0u);

  ASSERT_TRUE(comm.wait(comm.isend(3, 0, 1, 0, 64)));  // shm pair (0, 3)
  EXPECT_EQ(idle_cost(cluster, comm), 0u);
  ASSERT_TRUE(comm.wait(comm.isend(0, 1, 1, 0, 64)));  // VI pair (0, 1)
  EXPECT_EQ(idle_cost(cluster, comm), read);
  ASSERT_TRUE(comm.wait(comm.isend(2, 3, 1, 0, 64)));  // VI pair (2, 3)
  EXPECT_EQ(idle_cost(cluster, comm), read);
}

std::string stats_line(const CommStats& s) {
  return std::to_string(s.eager_sends) + " " +
         std::to_string(s.rendezvous_sends) + " " +
         std::to_string(s.unexpected_msgs) + " " +
         std::to_string(s.expected_msgs) + " " + std::to_string(s.rdma_pulls) +
         " " + std::to_string(s.local_msgs) + " " +
         std::to_string(s.local_pulls) + " " +
         std::to_string(s.indirect_sends) + " " +
         std::to_string(s.indirect_forwards) + " " + std::to_string(s.bytes);
}

// Two communicators on one cluster share its clock, so their progress
// charges interleave. `routed` mixes shm and VI pairs with one missing link
// (traffic 0 <-> 2 hops through rank 1); `lazy` creates its pairs on demand.
// Every request must complete, and the clock after each step feeds a running
// FNV-1a, so a charge that moves between steps changes the hash even when
// the total stays put.
TEST(MpProgress, MixedRunPinsClockAndCounters) {
  via::Cluster cluster;
  const via::NodeId a = add_host(cluster);
  const via::NodeId b = add_host(cluster);
  const via::NodeId c = add_host(cluster);
  Comm::Config routed_cfg;
  routed_cfg.no_direct_link = {{0, 2}};
  Comm routed(cluster, {a, a, b, c, c}, routed_cfg);
  ASSERT_TRUE(ok(routed.init()));
  ASSERT_FALSE(routed.has_direct_link(0, 2));
  ASSERT_TRUE(routed.uses_shm(0, 1));
  ASSERT_TRUE(routed.uses_shm(3, 4));
  Comm::Config lazy_cfg;
  lazy_cfg.lazy_links = true;
  Comm lazy(cluster, {b, c, a, b}, lazy_cfg);
  ASSERT_TRUE(ok(lazy.init()));

  std::uint64_t steps = 0xcbf29ce484222325ULL;
  const auto step = [&] {
    for (int i = 0; i < 8; ++i) {
      steps ^= (cluster.clock().now() >> (8 * i)) & 0xFF;
      steps *= 0x100000001b3ULL;
    }
  };
  constexpr std::uint32_t kLong = 48 * 1024;  // above the eager threshold
  for (int round = 0; round < 3; ++round) {
    const auto tag = static_cast<std::int32_t>(round);
    // VI eager, posted first (expected) and late (unexpected).
    const ReqId r1 = routed.irecv(3, 1, tag, 0, 4096);
    ASSERT_TRUE(routed.wait(routed.isend(1, 3, tag, 0, 512)));
    ASSERT_TRUE(routed.wait(r1));
    step();
    ASSERT_TRUE(routed.wait(routed.isend(2, 4, tag, 0, 256)));
    ASSERT_TRUE(ok(routed.recv(4, kAnySource, tag, 4096, 4096)));
    step();
    // VI rendezvous, posted receive and unexpected request.
    const ReqId r2 = routed.irecv(4, 1, tag, 8192, kLong);
    const ReqId s2 = routed.isend(1, 4, tag, 65536, kLong);
    ASSERT_TRUE(routed.wait(r2));
    ASSERT_TRUE(routed.wait(s2));
    step();
    const ReqId s3 = routed.isend(2, 3, tag, 65536, kLong);
    const ReqId r3 = routed.irecv(3, 2, tag, 8192, kLong);
    ASSERT_TRUE(routed.wait(r3));
    ASSERT_TRUE(routed.wait(s3));
    step();
    // Shared-memory eager and local pull.
    const ReqId r4 = routed.irecv(0, 1, tag, 0, 4096);
    ASSERT_TRUE(routed.wait(routed.isend(1, 0, tag, 0, 1024)));
    ASSERT_TRUE(routed.wait(r4));
    step();
    const ReqId r5 = routed.irecv(4, 3, tag, 8192, kLong);
    const ReqId s5 = routed.isend(3, 4, tag, 65536, kLong);
    ASSERT_TRUE(routed.wait(r5));
    ASSERT_TRUE(routed.wait(s5));
    step();
    // Routed both ways across the missing 0 <-> 2 link.
    const ReqId r6 = routed.irecv(2, 0, tag, 0, 4096);
    ASSERT_TRUE(routed.wait(routed.isend(0, 2, tag, 0, 700)));
    ASSERT_TRUE(routed.wait(r6));
    step();
    ASSERT_TRUE(routed.wait(routed.isend(2, 0, tag, 0, 300)));
    MpStatus st;
    ASSERT_TRUE(ok(routed.recv(0, 2, tag, 4096, 4096, &st)));
    EXPECT_EQ(st.len, 300u);
    step();
    // Lazy pairs, VI and shm, eager and rendezvous, interleaved with idle
    // sweeps of the other communicator.
    const auto dst = static_cast<Rank>(1 + round);
    ASSERT_TRUE(lazy.wait(lazy.isend(0, dst, tag, 0, 128)));
    ASSERT_TRUE(ok(lazy.recv(dst, 0, tag, 0, 4096)));
    routed.progress();
    step();
    const ReqId r7 = lazy.irecv(0, 3, tag, 8192, kLong);
    const ReqId s7 = lazy.isend(3, 0, tag, 65536, kLong);
    ASSERT_TRUE(lazy.wait(r7));
    ASSERT_TRUE(lazy.wait(s7));
    step();
  }

  EXPECT_EQ(stats_line(routed.stats()), "9 9 9 15 6 21 3 6 12 450744");
  EXPECT_EQ(stats_line(lazy.stats()), "3 3 3 3 0 7 3 0 0 147840");
  EXPECT_EQ(cluster.clock().now(), 16988240u);
  EXPECT_EQ(steps, 0xfcb44598f174d10aULL);
}

}  // namespace
}  // namespace vialock::mp
