// kv_service_test - functional contract of the zero-copy KV service tier:
// inline vs rendezvous data paths, pipelined batching, governed admission
// shedding, the teardown-accounting regression (an abrupt mid-pipeline
// disconnect strands neither pinned frames nor governor charge), and the
// connection lifecycle both ends share: a recycled VI keeps its completion
// queues, and a dead incarnation's completions on a reused VI are dropped
// by generation.
#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.h"
#include "svc_util.h"

namespace vialock::svc {
namespace {

TEST_F(KvBox, InlineRoundTripServesPutAndGet) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));

  const KvResult put = put_now(conn, 7, 64);
  EXPECT_EQ(put.op, KvOp::Put);
  EXPECT_EQ(put.status, KvStatus::Ok);
  EXPECT_FALSE(put.rendezvous);

  const KvResult got = get_now(conn, 7);
  EXPECT_EQ(got.status, KvStatus::Ok);
  EXPECT_TRUE(got.data_ok);
  EXPECT_EQ(got.value_len, 64u);
  EXPECT_FALSE(got.rendezvous);

  const KvResult miss = get_now(conn, 999);
  EXPECT_EQ(miss.status, KvStatus::NotFound);
  EXPECT_EQ(miss.value_len, 0u);

  const KvServerStats& ss = server->stats();
  EXPECT_EQ(ss.requests, 3u);
  EXPECT_EQ(ss.puts, 1u);
  EXPECT_EQ(ss.gets, 2u);
  EXPECT_EQ(ss.not_found, 1u);
  // Small values ride the eager slots: copied, never RDMA'd.
  EXPECT_EQ(ss.inline_bytes, 128u);
  EXPECT_GT(ss.eager_copies, 0u);
  EXPECT_EQ(ss.rendezvous_ops, 0u);
  EXPECT_EQ(server->tenant_keys(t), 1u);
  EXPECT_GT(client->stats().inline_bytes, 0u);
}

TEST_F(KvBox, RendezvousMovesLargeValuesWithZeroEagerCopies) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));

  // 4 KB value, well past the 256-byte inline threshold.
  const KvResult put = put_now(conn, 42, 4096);
  EXPECT_EQ(put.status, KvStatus::Ok);
  EXPECT_TRUE(put.rendezvous);

  const KvResult got = get_now(conn, 42);
  EXPECT_EQ(got.status, KvStatus::Ok);
  EXPECT_TRUE(got.rendezvous);
  EXPECT_TRUE(got.data_ok);
  EXPECT_EQ(got.value_len, 4096u);

  // The zero-copy evidence: every value byte moved by RDMA, none through
  // the eager slots, no slot<->arena copies at all.
  const KvServerStats& ss = server->stats();
  EXPECT_EQ(ss.rendezvous_ops, 2u);
  EXPECT_EQ(ss.rendezvous_bytes, 8192u);
  EXPECT_EQ(ss.eager_copies, 0u);
  EXPECT_EQ(ss.inline_bytes, 0u);
  // The client counts both directions: the PUT it staged into its window
  // and the GET the server RDMA-wrote back into it.
  EXPECT_EQ(client->stats().rendezvous_bytes, 8192u);

  // Full teardown audits clean: zero pinned frames, zero governor charge.
  ASSERT_TRUE(ok(client->close(conn)));
  server->shutdown();
  EXPECT_EQ(gov->total_charged(), 0u);
  EXPECT_EQ(cluster->node(sn).kernel().pinned_frames(), 0u);
}

TEST_F(KvBox, PipelinedBurstUsesOneDoorbellAndBatchedReplies) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));

  // Fill the whole window (4) without flushing; the window then pushes back.
  for (std::uint64_t k = 1; k <= 4; ++k) stage_put(conn, k, 32);
  EXPECT_FALSE(client->can_issue(conn));
  std::uint64_t req_id = 0;
  EXPECT_EQ(client->get(conn, 1, req_id), KStatus::Busy);

  const std::vector<KvResult> results = pump(conn);
  ASSERT_EQ(results.size(), 4u);
  for (const KvResult& r : results) EXPECT_EQ(r.status, KvStatus::Ok);

  // One flush = one doorbell for the burst; the server drained the burst in
  // batches and answered through batched per-VI reply doorbells.
  EXPECT_EQ(client->stats().doorbell_flushes, 1u);
  const KvServerStats& ss = server->stats();
  EXPECT_GE(ss.batched_completions, 4u);
  EXPECT_GE(ss.batched_replies, 4u);
  EXPECT_GE(ss.batches, 1u);
  EXPECT_EQ(client->inflight(conn), 0u);
}

TEST_F(KvBox, BestEffortConnectionShedUnderQuotaPressure) {
  // Slot rings need 2 pages; a 1-page BestEffort quota has no headroom, so
  // the admission probe sheds the connection before any registration work.
  const std::uint32_t starved =
      server->add_tenant({"starved", 1, pinmgr::QosTier::BestEffort});
  const std::uint32_t pinned_before = cluster->node(sn).kernel().pinned_frames();
  const std::uint32_t charged_before = gov->total_charged();

  std::uint32_t conn = 0;
  EXPECT_EQ(client->connect(*server, starved, conn), KStatus::Again);
  EXPECT_EQ(server->stats().conns_shed, 1u);
  EXPECT_EQ(server->stats().conns_accepted, 0u);
  EXPECT_EQ(server->open_conns(), 0u);
  // The shed left nothing behind on either side.
  EXPECT_EQ(client->open_conns(), 0u);
  EXPECT_EQ(cluster->node(sn).kernel().pinned_frames(), pinned_before);
  EXPECT_EQ(gov->total_charged(), charged_before);

  // A Guaranteed tenant with real quota still gets in.
  const std::uint32_t good =
      server->add_tenant({"good", 256, pinmgr::QosTier::Guaranteed});
  ASSERT_TRUE(ok(client->connect(*server, good, conn)));
  EXPECT_EQ(server->stats().conns_accepted, 1u);
}

TEST_F(KvBox, AbruptDisconnectReclaimsPinsAndGovernorCharge) {
  // The satellite regression: a client that vanishes mid-pipeline must not
  // strand pinned frames or governor charge on the server.
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  const std::uint32_t pinned_baseline =
      cluster->node(sn).kernel().pinned_frames();
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  EXPECT_EQ(put_now(conn, 5, 64).status, KvStatus::Ok);
  EXPECT_GT(gov->total_charged(), 0u);  // the slot rings are charged

  // Fill the pipeline, ring the doorbell... and vanish before the replies.
  for (int i = 0; i < 4; ++i) {
    std::uint64_t req_id = 0;
    ASSERT_TRUE(ok(client->get(conn, 5, req_id)));
  }
  (void)client->flush(conn);
  ASSERT_TRUE(ok(client->abandon(conn)));
  EXPECT_EQ(client->stats().requests_lost, 4u);

  // The server discovers the death when its replies bounce, and reclaims.
  while (server->service() != 0) {
  }
  server->drain();
  EXPECT_EQ(server->stats().conns_abandoned, 1u);
  EXPECT_EQ(server->open_conns(), 0u);
  EXPECT_EQ(gov->total_charged(), 0u);
  EXPECT_EQ(cluster->node(sn).kernel().pinned_frames(), pinned_baseline);

  // The abandonment is visible as a metric for the observability layer.
  const obs::Snapshot snap = cluster->node(sn).kernel().metrics().snapshot();
  const auto it = std::find_if(
      snap.begin(), snap.end(),
      [](const obs::Metric& m) { return m.name == "svc.conn_abandoned"; });
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->value, 1u);

  // The tenant (and its data) survive the dead connection: reconnect works.
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  const KvResult got = get_now(conn, 5);
  EXPECT_EQ(got.status, KvStatus::Ok);
  EXPECT_TRUE(got.data_ok);
}

TEST_F(KvBox, ConnectionChurnRecyclesEverything) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  const std::uint32_t pinned_baseline =
      cluster->node(sn).kernel().pinned_frames();
  for (std::uint64_t round = 0; round < 6; ++round) {
    std::uint32_t conn = 0;
    ASSERT_TRUE(ok(client->connect(*server, t, conn)));
    EXPECT_EQ(put_now(conn, round, 64).status, KvStatus::Ok);
    const std::uint32_t sc = client->server_conn(conn);
    ASSERT_TRUE(ok(client->close(conn)));
    ASSERT_TRUE(ok(server->close(sc)));
    EXPECT_EQ(gov->total_charged(), 0u);
    EXPECT_EQ(cluster->node(sn).kernel().pinned_frames(), pinned_baseline);
  }
  EXPECT_EQ(server->stats().conns_accepted, 6u);
  EXPECT_EQ(server->stats().conns_closed, 6u);
  EXPECT_EQ(server->tenant_keys(t), 6u);
}

TEST_F(KvBox, RecycledViAfterRefusedRegistrationKeepsItsCompletionQueues) {
  // A 2-page quota covers exactly one connection's slot rings.
  const std::uint32_t t =
      server->add_tenant({"tight", 2, pinmgr::QosTier::Guaranteed});
  std::uint32_t first = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, first)));

  // The second connection mints a fresh server VI, then its ring
  // registration is refused; the VI goes back to the free list.
  std::uint32_t second = 0;
  EXPECT_EQ(client->connect(*server, t, second), KStatus::NoMem);
  EXPECT_EQ(server->stats().admission_rejected, 1u);

  // With room again, the third connection reuses that VI. Its requests must
  // still reach the shared recv CQ, and its replies the shared send CQ.
  gov->set_tenant(server->tenant_pid(t), 256, pinmgr::QosTier::Guaranteed);
  std::uint32_t third = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, third)));
  stage_put(third, 9, 64);
  const std::vector<KvResult> r = pump(third);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].status, KvStatus::Ok);
  EXPECT_EQ(server->stats().requests, 1u);
  EXPECT_EQ(server->stats().requests_dropped, 0u);
}

TEST_F(KvBox, StaleRequestOfAClosedConnectionIsDroppedOnTheReusedVi) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  // The request reaches the server's recv CQ, then both ends go away before
  // the server services it.
  stage_put(conn, 1, 64);
  EXPECT_EQ(client->flush(conn), 1u);
  const std::uint32_t sc = client->server_conn(conn);
  ASSERT_TRUE(ok(client->abandon(conn)));
  ASSERT_TRUE(ok(server->close(sc)));

  // The next connection reuses both VIs and the same ring memory, so only
  // the generation in the cookie tells the old request from a new one.
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  EXPECT_EQ(client->server_conn(conn), sc);
  const KvResult put = put_now(conn, 2, 64);
  EXPECT_EQ(put.status, KvStatus::Ok);

  const KvServerStats& ss = server->stats();
  EXPECT_EQ(ss.requests_dropped, 1u);
  EXPECT_EQ(ss.requests, 1u);
  EXPECT_EQ(ss.puts, 1u);
  EXPECT_EQ(server->tenant_keys(t), 1u);  // key 1 was never committed
}

TEST_F(KvBox, StaleResponseOfAnAbandonedConnectionIsDroppedOnTheReusedVi) {
  const std::uint32_t t = server->add_tenant({"t0", 256,
                                              pinmgr::QosTier::Guaranteed});
  std::uint32_t conn = 0;
  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  // The reply lands in the client's recv CQ; the client abandons the
  // connection without harvesting it.
  stage_put(conn, 1, 64);
  (void)client->flush(conn);
  while (server->service() != 0) {
  }
  const std::uint32_t sc = client->server_conn(conn);
  ASSERT_TRUE(ok(client->abandon(conn)));
  ASSERT_TRUE(ok(server->close(sc)));
  EXPECT_EQ(client->stats().requests_lost, 1u);

  ASSERT_TRUE(ok(client->connect(*server, t, conn)));
  const KvResult put = put_now(conn, 2, 64);
  EXPECT_EQ(put.status, KvStatus::Ok);
  EXPECT_EQ(put.key, 2u);

  const KvClientStats& cs = client->stats();
  EXPECT_EQ(cs.stale_completions, 1u);
  EXPECT_EQ(cs.bad_responses, 0u);
  EXPECT_EQ(cs.responses, 1u);
}

}  // namespace
}  // namespace vialock::svc
