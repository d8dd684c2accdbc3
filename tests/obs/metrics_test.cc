// metrics_test.cc - unit tests for the obs metric registry (ISSUE/PR4):
// histogram bucket boundaries, snapshot determinism, source owner semantics,
// exporter text stability.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/export.h"

namespace vialock::obs {
namespace {

// --- histogram bucketing -----------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // bucket 0 = {0}, bucket 1 = {1}, bucket k = [2^(k-1), 2^k - 1].
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  for (std::size_t k = 1; k < 64; ++k) {
    const std::uint64_t pow = 1ULL << k;
    EXPECT_EQ(Histogram::bucket_of(pow), k + 1) << "2^" << k;
    EXPECT_EQ(Histogram::bucket_of(pow - 1), k) << "2^" << k << "-1";
    if (pow + 1 < 2 * pow) {
      EXPECT_EQ(Histogram::bucket_of(pow + 1), k + 1) << "2^" << k << "+1";
    }
  }
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);
}

TEST(Histogram, UpperBoundsMatchBuckets) {
  EXPECT_EQ(Histogram::upper_bound(0), 0u);
  EXPECT_EQ(Histogram::upper_bound(1), 1u);
  EXPECT_EQ(Histogram::upper_bound(2), 3u);
  EXPECT_EQ(Histogram::upper_bound(10), 1023u);
  EXPECT_EQ(Histogram::upper_bound(64),
            std::numeric_limits<std::uint64_t>::max());
  // Every bucket's upper bound maps back into that bucket.
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::upper_bound(i)), i) << i;
  }
}

TEST(Histogram, CountSumMaxQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);

  for (const std::uint64_t v : {0u, 1u, 2u, 3u, 100u, 1000u}) h.add(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1106u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2, 3}
  // Rank 0.99*(6-1) = 4, the 5th smallest sample (100): its bucket's upper
  // bound is 127. The largest sample's bucket answers q = 1.0.
  EXPECT_EQ(h.quantile(0.99), 127u);
  EXPECT_EQ(h.quantile(1.0), 1023u);
}

TEST(Histogram, QuantilesAtBucketEdges) {
  // The log2 buckets make 0, 1, 2^k - 1, 2^k, and 2^k + 1 the interesting
  // inputs: a quantile answers with the upper bound of the bucket holding
  // the sample at rank round(q * (count - 1)).
  Histogram h;
  h.add(0);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.999), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);

  h.add(1);  // samples {0, 1}
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 1u);

  for (const std::uint64_t v : {7u, 8u, 9u}) h.add(v);  // 2^3 +/- 1
  // Samples {0, 1, 7, 8, 9}: 7 sits in bucket [4,7] (upper 7), 8 and 9 in
  // [8,15] (upper 15).
  EXPECT_EQ(h.quantile(0.5), 7u);
  EXPECT_EQ(h.quantile(1.0), 15u);

  h.add(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.quantile(1.0), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.quantile(0.999), 15u)
      << "rank floor(0.999 * 5) = 4, still below the max sample";
  EXPECT_EQ(h.quantile(0.0), 0u);
}

TEST(Histogram, P999SeparatesFromP99OnLongTails) {
  // 999 fast samples and two catastrophic outliers: p99 stays in the fast
  // band, p999 lands in the outliers' bucket - the tail the perf gate
  // watches. (Rank is floor(q * (count - 1)): with count = 1001 the 0.999
  // rank is 999, the first outlier.)
  Histogram h;
  for (int i = 0; i < 999; ++i) h.add(100);
  h.add(1'000'000);
  h.add(1'000'000);
  EXPECT_EQ(h.quantile(0.99), 127u);
  EXPECT_EQ(h.quantile(0.999), 1'048'575u);
}

TEST(Snapshot, CarriesP999) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("msg.ch.frame_ns");
  for (int i = 0; i < 999; ++i) h.add(10);
  h.add(100'000);
  h.add(100'000);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].p99, 15u);
  EXPECT_EQ(snap[0].p999, 131'071u);
}

TEST(Exporters, RenderP999InBothFormats) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("via.dma_ns");
  for (int i = 0; i < 999; ++i) h.add(10);
  h.add(100'000);
  h.add(100'000);
  const Snapshot snap = reg.snapshot();
  const std::string text = to_proc_text(snap);
  EXPECT_NE(text.find("via.dma_ns.p999 131071\n"), std::string::npos);
  EXPECT_NE(text.find("via.dma_ns.p99 15\n"), std::string::npos);
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"p999\": 131071"), std::string::npos);
}

TEST(Histogram, P95SitsBetweenP50AndP99) {
  // 94 fast samples, 5 medium, 1 slow out of 100: rank floor(q * 99) puts
  // p50 (rank 49) in the fast bucket, p95 (rank 94) on the first medium
  // sample, p99 (rank 98) on the last medium one, and only the true max
  // reaches the outlier's bucket.
  Histogram h;
  for (int i = 0; i < 94; ++i) h.add(100);
  for (int i = 0; i < 5; ++i) h.add(10'000);
  h.add(1'000'000);
  EXPECT_EQ(h.quantile(0.50), 127u);
  EXPECT_EQ(h.quantile(0.95), 16'383u);
  EXPECT_EQ(h.quantile(0.99), 16'383u);
  EXPECT_EQ(h.quantile(1.0), 1'048'575u);
}

TEST(Histogram, P95BucketEdges) {
  // 19 samples at the top edge of [8,15] and one at the bottom edge of
  // [16,31]: rank floor(0.95 * 19) = 18, the last sample of the low bucket,
  // so p95 reports that bucket's upper bound exactly.
  Histogram h;
  for (int i = 0; i < 19; ++i) h.add(15);
  h.add(16);
  EXPECT_EQ(h.quantile(0.95), 15u);
  // One more edge sample: rank floor(0.95 * 20) = 19 outranks the 19
  // low-bucket samples, so p95 crosses into [16,31].
  h.add(16);
  EXPECT_EQ(h.quantile(0.95), 31u);
}

TEST(Snapshot, CarriesP95AndExportersRenderIt) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("svc.kv.op_ns");
  for (int i = 0; i < 94; ++i) h.add(10);
  for (int i = 0; i < 5; ++i) h.add(1'000);
  h.add(100'000);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].p50, 15u);
  EXPECT_EQ(snap[0].p95, 1'023u);
  // Rank floor(0.999 * 99) = 98 is still the last medium sample; the single
  // outlier only shows up in max.
  EXPECT_EQ(snap[0].p999, 1'023u);
  EXPECT_EQ(snap[0].max, 100'000u);
  const std::string text = to_proc_text(snap);
  EXPECT_NE(text.find("svc.kv.op_ns.p50 15\n"), std::string::npos);
  EXPECT_NE(text.find("svc.kv.op_ns.p95 1023\n"), std::string::npos);
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"p95\": 1023"), std::string::npos);
}

TEST(Histogram, MaxTracksZeroOnlySamples) {
  Histogram h;
  h.add(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 0u);
  h.add(7);
  h.add(2);
  EXPECT_EQ(h.max(), 7u);
}

// --- registry instruments ----------------------------------------------------

TEST(MetricRegistry, GetOrCreateHandlesAreStable) {
  MetricRegistry reg;
  Counter& a = reg.counter("x.a");
  a.inc(3);
  // Creating more instruments must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    (void)reg.counter("x.fill" + std::to_string(i));
  }
  Counter& a2 = reg.counter("x.a");
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(a2.value(), 3u);
}

TEST(MetricRegistry, SnapshotSortedByName) {
  MetricRegistry reg;
  reg.counter("z.last").inc();
  reg.gauge("a.first").set(1);
  reg.histogram("m.middle").add(5);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[1].kind, MetricKind::Histogram);
  EXPECT_EQ(snap[1].count, 1u);
}

// --- pull sources and owner semantics ---------------------------------------

// A stats struct declared the way src/ declares them: one X-macro list
// drives the members and the rows.
#define TEST_STATS(X)      \
  X(hits, "hits", Counter) \
  X(hidden, "", Counter)   \
  X(misses, "misses", Counter)

struct TestStats {
  TEST_STATS(VIALOCK_STAT_MEMBER)
};

struct TestOwner {
  TestStats stats;
  std::uint64_t live = 0;

  static MetricTable rows() {
    using Stats = TestStats;
    static constexpr MetricRow kRows[] = {
        TEST_STATS(VIALOCK_STAT_ROW)
        computed<[](const TestOwner& o) { return o.live; }>("live"),
    };
    return kRows;
  }
};

TEST(MetricRegistry, SourcePrefixesNames) {
  MetricRegistry reg;
  TestOwner owner;
  owner.stats.hits = 5;
  owner.stats.hidden = 9;
  owner.live = 2;
  reg.register_source("via.agent", &owner, &owner.stats, TestOwner::rows());
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u) << "a row with an empty name is not exported";
  EXPECT_EQ(snap[0].name, "via.agent.hits");
  EXPECT_EQ(snap[0].value, 5u);
  EXPECT_EQ(snap[1].name, "via.agent.live");
  EXPECT_EQ(snap[1].kind, MetricKind::Gauge);
  EXPECT_EQ(snap[1].value, 2u);
  EXPECT_EQ(snap[2].name, "via.agent.misses");
  EXPECT_EQ(snap[2].kind, MetricKind::Counter);
}

TEST(MetricRegistry, RenderFieldsPrintsNamedFieldRows) {
  TestStats s;
  s.hits = 3;
  s.misses = 4;
  EXPECT_EQ(render_fields(TestOwner::rows(), &s), "hits 3\nmisses 4\n")
      << "computed rows and unnamed fields are not part of the block";
}

TEST(MetricRegistry, ReRegisterReplacesAndOldOwnerUnregisterIsNoop) {
  // The Node::enable_governor sequence: the replacement registers the name
  // BEFORE the original is destroyed; the original's dtor unregister must
  // not tear down the replacement's source.
  MetricRegistry reg;
  TestOwner old_owner, new_owner;
  old_owner.stats.hits = 1;
  new_owner.stats.hits = 2;
  reg.register_source("pinmgr", &old_owner, &old_owner.stats,
                      TestOwner::rows());
  reg.register_source("pinmgr", &new_owner, &new_owner.stats,
                      TestOwner::rows());
  reg.unregister_source("pinmgr", &old_owner);  // stale: must be a no-op
  ASSERT_EQ(reg.num_sources(), 1u);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].value, 2u) << "the replacement's source must survive";
  reg.unregister_source("pinmgr", &new_owner);
  EXPECT_EQ(reg.num_sources(), 0u);
}

TEST(MetricRegistry, SnapshotIntoReusesTheBufferUntilTheLayoutChanges) {
  MetricRegistry reg;
  TestOwner owner;
  reg.counter("a.total").inc();
  reg.register_source("core.regcache", &owner, &owner.stats,
                      TestOwner::rows());
  Snapshot buf;
  std::uint64_t gen = 0;
  EXPECT_FALSE(reg.snapshot_into(buf, gen)) << "first fill builds";
  ASSERT_EQ(buf.size(), 4u);
  owner.stats.misses = 7;
  EXPECT_TRUE(reg.snapshot_into(buf, gen)) << "same layout: in place";
  EXPECT_EQ(buf[2].name, "core.regcache.misses");  // emission order
  EXPECT_EQ(buf[2].value, 7u);
  (void)reg.gauge("b.level");
  EXPECT_FALSE(reg.snapshot_into(buf, gen)) << "a new instrument rebuilds";
  EXPECT_EQ(buf.size(), 5u);

  // fold_into adds values positionally through a merge plan, and refuses
  // once the layout moved on.
  Snapshot target(2);
  // a.total, b.level, hits, misses, live -> slots 0, 1, -, 1, -.
  const std::vector<std::uint32_t> map = {0, 1, kNoFoldSlot, 1, kNoFoldSlot};
  ASSERT_TRUE(reg.fold_into(target, map, gen));
  EXPECT_EQ(target[0].value, 1u);  // a.total
  EXPECT_EQ(target[1].value, 7u);  // b.level (0) + misses (7)
  reg.unregister_source("core.regcache", &owner);
  EXPECT_FALSE(reg.fold_into(target, map, gen));
}

TEST(MetricRegistry, SnapshotDeterminismAcrossIdenticalRuns) {
  // Two registries fed the same sequence must export byte-identical text -
  // the property the --metrics determinism gate builds on.
  const auto populate = [](MetricRegistry& reg, TestOwner& owner) {
    reg.counter("via.agent.register_total").inc(7);
    reg.gauge("simkern.mem.free_frames").set(1234);
    Histogram& h = reg.histogram("via.agent.register_ns");
    for (std::uint64_t v = 1; v < 100; v += 7) h.add(v * v);
    owner.stats.hits = 65536;
    owner.stats.misses = 3;
    reg.register_source("msg.ch", &owner, &owner.stats, TestOwner::rows());
  };
  MetricRegistry r1, r2;
  TestOwner o1, o2;
  populate(r1, o1);
  populate(r2, o2);
  EXPECT_EQ(to_proc_text(r1.snapshot()), to_proc_text(r2.snapshot()));
  EXPECT_EQ(to_json(r1.snapshot()), to_json(r2.snapshot()));
  // And a second snapshot of the same registry is identical to the first.
  EXPECT_EQ(to_proc_text(r1.snapshot()), to_proc_text(r1.snapshot()));
}

TEST(ProcText, HistogramRendersSummaryLines) {
  MetricRegistry reg;
  reg.histogram("via.agent.register_ns").add(1000);
  const std::string text = to_proc_text(reg.snapshot());
  EXPECT_NE(text.find("via.agent.register_ns.count 1\n"), std::string::npos);
  EXPECT_NE(text.find("via.agent.register_ns.sum 1000\n"), std::string::npos);
  EXPECT_NE(text.find("via.agent.register_ns.max 1000\n"), std::string::npos);
}

}  // namespace
}  // namespace vialock::obs
