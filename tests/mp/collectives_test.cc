// collectives_test.cc - MPI-style collectives over the matching layer,
// including mixed shm/fabric topologies.
#include "mp/collectives.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "../via/via_util.h"
#include "util/rng.h"

namespace vialock::mp {
namespace {

struct CollBox {
  /// `layout[i]` gives the node index (0..) rank i lives on.
  explicit CollBox(std::vector<int> layout) {
    int max_node = 0;
    for (const int n : layout) max_node = std::max(max_node, n);
    std::vector<via::NodeId> node_ids;
    for (int n = 0; n <= max_node; ++n) {
      node_ids.push_back(cluster.add_node(test::small_node(
          via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048)));
    }
    std::vector<via::NodeId> rank_nodes;
    for (const int n : layout) rank_nodes.push_back(node_ids[n]);
    comm = std::make_unique<Comm>(cluster, rank_nodes);
    EXPECT_TRUE(ok(comm->init()));
  }
  via::Cluster cluster;
  std::unique_ptr<Comm> comm;
};

TEST(Collectives, UserTagsMayNotBeNegative) {
  CollBox box({0, 1});
  EXPECT_EQ(box.comm->isend(0, 1, -5, 0, 8), kInvalidReq);
  EXPECT_EQ(box.comm->irecv(1, 0, -5, 0, 8), kInvalidReq);
  EXPECT_NE(box.comm->irecv(1, 0, kAnyTag, 0, 8), kInvalidReq);
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

TEST(Collectives, BroadcastAcrossFourRanks) {
  CollBox box({0, 0, 1, 1});  // mixed shm + fabric
  const CommStats& cs = box.comm->stats();
  // Every root, eager-sized; then one payload above the eager threshold,
  // which must travel rendezvous. The binomial tree sends N-1 messages.
  for (const std::uint32_t len : {512u, 100'000u}) {
    for (Rank root = 0; root < 4; ++root) {
      const auto payload = pattern(len, 100 + root);
      ASSERT_TRUE(ok(box.comm->stage(root, 0, payload)));
      const std::uint64_t eager = cs.eager_sends;
      const std::uint64_t rndz = cs.rendezvous_sends;
      ASSERT_TRUE(ok(broadcast(*box.comm, root, 0, len)));
      const bool large = len > Comm::Config{}.eager_threshold;
      EXPECT_EQ(cs.eager_sends - eager, large ? 0u : 3u) << "root " << root;
      EXPECT_EQ(cs.rendezvous_sends - rndz, large ? 3u : 0u) << "root " << root;
      for (Rank r = 0; r < 4; ++r) {
        std::vector<std::byte> out(len);
        ASSERT_TRUE(ok(box.comm->fetch(r, 0, out)));
        EXPECT_EQ(out, payload) << "root " << root << " rank " << r;
      }
    }
  }
}

TEST(Collectives, ReduceSumToArbitraryRoot) {
  CollBox box({0, 1, 0});
  constexpr std::uint32_t kCount = 8;
  std::array<std::uint64_t, kCount> expect{};
  for (Rank r = 0; r < 3; ++r) {
    std::array<std::uint64_t, kCount> vals;
    for (std::uint32_t i = 0; i < kCount; ++i) {
      vals[i] = (r + 1) * 10 + i;
      expect[i] += vals[i];
    }
    ASSERT_TRUE(ok(box.comm->stage(r, 0, std::as_bytes(std::span{vals}))));
  }
  ASSERT_TRUE(ok(reduce_sum(*box.comm, /*root=*/1, 0, kCount, 4096)));
  std::array<std::uint64_t, kCount> got{};
  ASSERT_TRUE(
      ok(box.comm->fetch(1, 0, std::as_writable_bytes(std::span{got}))));
  EXPECT_EQ(got, expect);
}

TEST(Collectives, AllreduceAgreesEverywhere) {
  // Non-power-of-two rank counts: five ranks on shm + fabric, three on
  // the fabric only.
  for (const std::vector<int>& layout :
       {std::vector<int>{0, 0, 1, 1, 1}, std::vector<int>{0, 1, 2}}) {
    CollBox box(layout);
    const auto n = static_cast<Rank>(layout.size());
    constexpr std::uint32_t kCount = 16;
    std::array<std::uint64_t, kCount> expect{};
    for (Rank r = 0; r < n; ++r) {
      std::array<std::uint64_t, kCount> vals;
      for (std::uint32_t i = 0; i < kCount; ++i) {
        vals[i] = (1ULL << r) * 1000 + i;
        expect[i] += vals[i];
      }
      ASSERT_TRUE(ok(box.comm->stage(r, 0, std::as_bytes(std::span{vals}))));
    }
    ASSERT_TRUE(ok(allreduce_sum(*box.comm, 0, kCount, 4096)));
    for (Rank r = 0; r < n; ++r) {
      std::array<std::uint64_t, kCount> got{};
      ASSERT_TRUE(
          ok(box.comm->fetch(r, 0, std::as_writable_bytes(std::span{got}))));
      EXPECT_EQ(got, expect) << n << " ranks, rank " << r;
    }
  }
}

TEST(Collectives, GatherAssemblesBlocksAtRoot) {
  CollBox box({0, 1, 1});
  constexpr std::uint32_t kBlock = 2048;
  for (Rank r = 0; r < 3; ++r) {
    const std::uint64_t marker = 0x6A77E2 + r;
    ASSERT_TRUE(ok(box.comm->stage(r, 0, test::bytes_of(marker))));
  }
  ASSERT_TRUE(ok(gather(*box.comm, /*root=*/0, 0, kBlock)));
  for (Rank r = 1; r < 3; ++r) {
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        0, static_cast<std::uint64_t>(r) * kBlock,
        std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, 0x6A77E2u + r) << "block " << r;
  }
}

TEST(Collectives, AlltoallTransposesBlocks) {
  // Block j of rank i becomes block i of rank j: two ranks over the
  // fabric, three over shm + fabric.
  constexpr std::uint32_t kBlock = 4096;
  for (const std::vector<int>& layout :
       {std::vector<int>{0, 1}, std::vector<int>{0, 1, 1}}) {
    CollBox box(layout);
    const auto n = static_cast<Rank>(layout.size());
    const auto block_at = [&](Rank b) {
      return static_cast<std::uint64_t>(b) * kBlock;
    };
    for (Rank i = 0; i < n; ++i) {
      for (Rank j = 0; j < n; ++j) {
        const std::uint64_t v = 0xAA00 + i * 16 + j;
        ASSERT_TRUE(ok(box.comm->stage(i, block_at(j), test::bytes_of(v))));
      }
    }
    ASSERT_TRUE(ok(alltoall(*box.comm, 0, kBlock)));
    for (Rank j = 0; j < n; ++j) {
      for (Rank i = 0; i < n; ++i) {
        std::uint64_t got = 0;
        ASSERT_TRUE(ok(box.comm->fetch(
            j, block_at(i), std::as_writable_bytes(std::span{&got, 1}))));
        EXPECT_EQ(got, 0xAA00u + i * 16 + j) << n << " ranks, " << i << "->"
                                             << j;
      }
    }
  }
}

TEST(Collectives, BarrierCompletesOnMixedTopology) {
  CollBox box({0, 0, 1});
  const Nanos before = box.cluster.clock().now();
  ASSERT_TRUE(ok(barrier(*box.comm)));
  EXPECT_GT(box.cluster.clock().now(), before);
}

TEST(Collectives, InternalTagsDontDisturbUserTraffic) {
  CollBox box({0, 1});
  // A user message parked unexpected must survive a barrier + broadcast.
  const std::uint64_t v = 0x11EE;
  ASSERT_TRUE(ok(box.comm->stage(0, 256, test::bytes_of(v))));
  ASSERT_TRUE(box.comm->wait(box.comm->isend(0, 1, 33, 256, 8)));
  ASSERT_TRUE(ok(barrier(*box.comm, /*scratch=*/1024)));
  ASSERT_TRUE(ok(broadcast(*box.comm, 0, 2048, 64)));
  MpStatus st;
  ASSERT_TRUE(ok(box.comm->recv(1, 0, 33, 512, 64, &st)));
  std::uint64_t got = 0;
  ASSERT_TRUE(ok(box.comm->fetch(
      1, 512, std::as_writable_bytes(std::span{&got, 1}))));
  EXPECT_EQ(got, 0x11EEu);
  // And an ANY_TAG receive posted during user traffic must not have been
  // stolen by collective-internal messages (they use negative tags which
  // only internal receives can match).
}

TEST(Collectives, RepeatedCollectivesAreStable) {
  CollBox box({0, 1, 0, 1});
  for (int round = 0; round < 5; ++round) {
    for (Rank r = 0; r < 4; ++r) {
      const std::uint64_t v = round * 100 + r;
      ASSERT_TRUE(ok(box.comm->stage(r, 0, test::bytes_of(v))));
    }
    ASSERT_TRUE(ok(allreduce_sum(*box.comm, 0, 1, 4096)));
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        3, 0, std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, static_cast<std::uint64_t>(4 * round * 100 + 0 + 1 + 2 + 3));
    ASSERT_TRUE(ok(barrier(*box.comm, 8192)));
  }
}

}  // namespace
}  // namespace vialock::mp
