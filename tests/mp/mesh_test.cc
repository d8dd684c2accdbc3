// mesh_test.cc - N-rank collectives on a fabric-only mesh: one node per
// rank, so every exchange crosses the VIA substrate (no shared-memory
// links). collectives_test.cc covers mixed shm + fabric layouts.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "../via/via_util.h"
#include "mp/collectives.h"
#include "util/rng.h"

namespace vialock::mp {
namespace {

struct MeshBox {
  explicit MeshBox(Rank ranks = 4) {
    std::vector<via::NodeId> nodes;
    for (Rank i = 0; i < ranks; ++i) {
      nodes.push_back(cluster.add_node(test::small_node(
          via::PolicyKind::Kiobuf, /*frames=*/2048, /*tpt_entries=*/2048)));
    }
    comm = std::make_unique<Comm>(cluster, nodes);
    EXPECT_TRUE(ok(comm->init()));
  }
  /// Messages sent so far, eager and rendezvous alike.
  [[nodiscard]] std::uint64_t sends() const {
    return comm->stats().eager_sends + comm->stats().rendezvous_sends;
  }
  via::Cluster cluster;
  std::unique_ptr<Comm> comm;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

TEST(Mesh, PointToPointMovesRankData) {
  MeshBox box(3);
  const auto payload = pattern(10'000, 1);
  const auto len = static_cast<std::uint32_t>(payload.size());
  ASSERT_TRUE(ok(box.comm->stage(0, 64, payload)));
  const ReqId rx = box.comm->irecv(2, 0, 7, 64, len);
  const ReqId tx = box.comm->isend(0, 2, 7, 64, len);
  ASSERT_TRUE(box.comm->wait(tx));
  ASSERT_TRUE(box.comm->wait(rx));
  std::vector<std::byte> out(payload.size());
  ASSERT_TRUE(ok(box.comm->fetch(2, 64, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(box.sends(), 1u);
}

TEST(Mesh, BroadcastReachesEveryRank) {
  MeshBox box(4);
  const auto payload = pattern(20'000, 2);
  ASSERT_TRUE(ok(box.comm->stage(1, 0, payload)));
  ASSERT_TRUE(ok(broadcast(*box.comm, /*root=*/1, 0,
                           static_cast<std::uint32_t>(payload.size()))));
  for (Rank r = 0; r < 4; ++r) {
    std::vector<std::byte> out(payload.size());
    ASSERT_TRUE(ok(box.comm->fetch(r, 0, out)));
    EXPECT_EQ(payload, out) << "rank " << r;
  }
}

TEST(Mesh, BroadcastFromEveryRootWorks) {
  MeshBox box(3);
  for (Rank root = 0; root < 3; ++root) {
    const auto payload = pattern(512, 100 + root);
    ASSERT_TRUE(ok(box.comm->stage(root, 0, payload)));
    ASSERT_TRUE(ok(broadcast(*box.comm, root, 0, 512)));
    for (Rank r = 0; r < 3; ++r) {
      std::vector<std::byte> out(512);
      ASSERT_TRUE(ok(box.comm->fetch(r, 0, out)));
      EXPECT_EQ(payload, out) << "root " << root << " rank " << r;
    }
  }
}

TEST(Mesh, BinomialBroadcastUsesLogRounds) {
  // 4 ranks: binomial tree = 3 messages (1 + 2), not N-1 rounds of N.
  MeshBox box(4);
  const auto payload = pattern(256, 3);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  const auto msgs_before = box.sends();
  ASSERT_TRUE(ok(broadcast(*box.comm, 0, 0, 256)));
  EXPECT_EQ(box.sends() - msgs_before, 3u);
}

TEST(Mesh, AllreduceSumsAcrossRanks) {
  MeshBox box(4);
  constexpr std::uint32_t kCount = 16;
  std::array<std::uint64_t, kCount> expect{};
  for (Rank r = 0; r < 4; ++r) {
    std::array<std::uint64_t, kCount> vals;
    for (std::uint32_t i = 0; i < kCount; ++i) {
      vals[i] = (r + 1) * 1000 + i;
      expect[i] += vals[i];
    }
    ASSERT_TRUE(ok(box.comm->stage(r, 0, std::as_bytes(std::span{vals}))));
  }
  ASSERT_TRUE(ok(allreduce_sum(*box.comm, 0, kCount, /*scratch=*/4096)));
  for (Rank r = 0; r < 4; ++r) {
    std::array<std::uint64_t, kCount> got{};
    ASSERT_TRUE(
        ok(box.comm->fetch(r, 0, std::as_writable_bytes(std::span{got}))));
    EXPECT_EQ(got, expect) << "rank " << r;
  }
}

TEST(Mesh, AllreduceWithNonPowerOfTwoRanks) {
  MeshBox box(3);
  std::uint64_t expect = 0;
  for (Rank r = 0; r < 3; ++r) {
    const std::uint64_t v = 7 + r * 11;
    expect += v;
    ASSERT_TRUE(ok(box.comm->stage(r, 0, test::bytes_of(v))));
  }
  ASSERT_TRUE(ok(allreduce_sum(*box.comm, 0, 1, /*scratch=*/4096)));
  for (Rank r = 0; r < 3; ++r) {
    std::uint64_t got = 0;
    ASSERT_TRUE(ok(box.comm->fetch(
        r, 0, std::as_writable_bytes(std::span{&got, 1}))));
    EXPECT_EQ(got, expect) << "rank " << r;
  }
}

TEST(Mesh, AlltoallTransposesBlocks) {
  MeshBox box(3);
  constexpr std::uint32_t kBlock = 4096;
  // Block j of rank i carries the marker (i, j).
  for (Rank i = 0; i < 3; ++i) {
    for (Rank j = 0; j < 3; ++j) {
      const std::uint64_t marker = 0xB0000000ULL + i * 100 + j;
      ASSERT_TRUE(ok(box.comm->stage(
          i, static_cast<std::uint64_t>(j) * kBlock, test::bytes_of(marker))));
    }
  }
  ASSERT_TRUE(ok(alltoall(*box.comm, 0, kBlock)));
  for (Rank j = 0; j < 3; ++j) {
    for (Rank i = 0; i < 3; ++i) {
      std::uint64_t got = 0;
      ASSERT_TRUE(ok(box.comm->fetch(
          j, static_cast<std::uint64_t>(i) * kBlock,
          std::as_writable_bytes(std::span{&got, 1}))));
      EXPECT_EQ(got, 0xB0000000ULL + i * 100 + j)
          << "rank " << j << " block " << i;
    }
  }
}

TEST(Mesh, AlltoallWithTwoRanks) {
  MeshBox box(2);
  for (Rank i = 0; i < 2; ++i) {
    for (Rank j = 0; j < 2; ++j) {
      const std::uint64_t marker = 0xAA00 + i * 16 + j;
      ASSERT_TRUE(ok(box.comm->stage(
          i, static_cast<std::uint64_t>(j) * 4096, test::bytes_of(marker))));
    }
  }
  ASSERT_TRUE(ok(alltoall(*box.comm, 0, 4096)));
  for (Rank j = 0; j < 2; ++j) {
    for (Rank i = 0; i < 2; ++i) {
      std::uint64_t got = 0;
      ASSERT_TRUE(ok(box.comm->fetch(
          j, static_cast<std::uint64_t>(i) * 4096,
          std::as_writable_bytes(std::span{&got, 1}))));
      EXPECT_EQ(got, 0xAA00u + i * 16 + j);
    }
  }
}

TEST(Mesh, LargeBroadcastUsesRendezvousPath) {
  MeshBox box(3);
  const auto payload = pattern(100'000, 77);  // > eager threshold
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  const std::uint64_t eager = box.comm->stats().eager_sends;
  const std::uint64_t rndz = box.comm->stats().rendezvous_sends;
  ASSERT_TRUE(ok(broadcast(*box.comm, 0, 0, 100'000)));
  EXPECT_EQ(box.comm->stats().eager_sends - eager, 0u);
  EXPECT_EQ(box.comm->stats().rendezvous_sends - rndz, 2u);
  for (Rank r = 1; r < 3; ++r) {
    std::vector<std::byte> out(payload.size());
    ASSERT_TRUE(ok(box.comm->fetch(r, 0, out)));
    EXPECT_EQ(payload, out) << "rank " << r;
  }
}

TEST(Mesh, BarrierCompletesAndChargesTime) {
  // Dissemination barrier at 4 ranks: 2 rounds of 4 token sends.
  MeshBox box(4);
  const Nanos before = box.cluster.clock().now();
  const auto msgs_before = box.sends();
  ASSERT_TRUE(ok(barrier(*box.comm)));
  EXPECT_GT(box.cluster.clock().now(), before);
  EXPECT_EQ(box.sends() - msgs_before, 8u);
}

TEST(Mesh, TwoRankMeshIsMinimal) {
  MeshBox box(2);
  const auto payload = pattern(100, 9);
  ASSERT_TRUE(ok(box.comm->stage(0, 0, payload)));
  ASSERT_TRUE(ok(broadcast(*box.comm, 0, 0, 100)));
  std::vector<std::byte> out(100);
  ASSERT_TRUE(ok(box.comm->fetch(1, 0, out)));
  EXPECT_EQ(payload, out);
  EXPECT_EQ(box.sends(), 1u);
}

}  // namespace
}  // namespace vialock::mp
