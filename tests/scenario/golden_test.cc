// golden_test - byte oracle for the serial executor: every bundled spec, run
// at a fixed smoke-scale override set, must reproduce pinned FNV-1a hashes
// of its canonical report_json and its TIMELINE_<name>.json export. The
// mp-driven specs also pin their merged chrome trace: report totals cannot
// show a virtual-time charge that moved between two spans, span timestamps
// can.
//
// The determinism tests check that two runs agree with each other; this test
// checks that a run agrees with the tree the hashes were captured from, so a
// refactor that shifts any virtual-time scalar, counter or timeline sample
// fails here even when it stays self-consistent. The hashes change only when
// a change is meant to alter simulated behaviour; such a change recaptures
// them and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/sampler.h"
#include "scenario/engine.h"
#include "scenario/spec.h"

#ifndef SCENARIO_SPEC_DIR
#define SCENARIO_SPEC_DIR "examples/scenarios"
#endif

namespace vialock::scenario {
namespace {

/// FNV-1a, 64-bit (the same hash the repository benchmark prints as
/// sim_fingerprint).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Golden {
  const char* spec;
  std::vector<std::pair<const char*, const char*>> overrides;
  std::uint64_t report;
  std::uint64_t timeline;
};

// Smoke scale: the two large specs are shrunk, the rest run as bundled.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> g = {
      {"chaos-churn", {}, 0x20a764572ea5240cULL, 0x712630dd019afbb5ULL},
      {"cluster-1m",
       {{"hosts", "32"},
        {"servers", "4"},
        {"ops_per_tenant", "100"},
        {"churn_regs_per_tenant", "25"}},
       0x8329b23e36cf87e8ULL,
       0xd2fbb30ad154dd7eULL},
      {"e12-collectives", {}, 0x8835b2e46d3b125aULL, 0x7ac96caaeef72c0dULL},
      {"kv-server",
       {{"hosts", "20"},
        {"servers", "4"},
        {"connections_per_client", "8"},
        {"conn_churn_per_client", "1"}},
       0x32be1b50a9e6d69dULL,
       0xbf95af78c1e97cacULL},
      {"pipeline", {}, 0x0e6b0b353e0fa131ULL, 0x32b209a4132c73bbULL},
      {"ps-allreduce", {}, 0x99f7bbece3b77cf9ULL, 0x480a6c0d7d3daef1ULL},
      {"rpc-fanout", {}, 0x70645dc72e8c4d8bULL, 0x1895d5afcad8087eULL},
      {"skewed-kv", {}, 0xd39a56313f8f0e79ULL, 0x287a050fd645eb21ULL},
  };
  return g;
}

void PrintTo(const Golden& g, std::ostream* os) { *os << g.spec; }

class ScenarioGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ScenarioGolden, ReportAndTimelineMatchPinnedHashes) {
  const Golden& g = GetParam();
  ParseResult parsed =
      load_spec_file(std::string(SCENARIO_SPEC_DIR) + "/" + g.spec + ".spec");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  for (const auto& [key, value] : g.overrides)
    ASSERT_EQ(parsed.spec.apply(key, value), "") << key << "=" << value;
  ASSERT_EQ(parsed.spec.validate(), "");

  ScenarioEngine engine(parsed.spec);
  ASSERT_TRUE(ok(engine.build()));
  engine.enable_timeline();
  ASSERT_TRUE(ok(engine.run()));
  ASSERT_NE(engine.sampler(), nullptr);
  EXPECT_TRUE(engine.report().invariants_ok);

  const std::string report = report_json(engine.spec(), engine.report());
  const std::string timeline =
      engine.sampler()->timeline_json(engine.spec().name, engine.spec().seed);
  EXPECT_EQ(hex(fnv1a(report)), hex(g.report)) << "report_json of " << g.spec;
  EXPECT_EQ(hex(fnv1a(timeline)), hex(g.timeline))
      << "TIMELINE_" << engine.spec().name << ".json";
}

INSTANTIATE_TEST_SUITE_P(
    BundledSpecs, ScenarioGolden, ::testing::ValuesIn(goldens()),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.spec;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

struct GoldenTrace {
  const char* spec;
  std::uint64_t trace;
};

void PrintTo(const GoldenTrace& g, std::ostream* os) { *os << g.spec; }

class ScenarioGoldenTrace : public ::testing::TestWithParam<GoldenTrace> {};

// The run `scenario_runner <spec> --timeline --trace-export` makes: spans on
// every node, memory-pressure counter overlays, one merged chrome trace. The
// hash is the FNV-1a of its TRACE_SCENARIO_<name>.json.
TEST_P(ScenarioGoldenTrace, ChromeTraceMatchesPinnedHash) {
  const GoldenTrace& g = GetParam();
  ParseResult parsed =
      load_spec_file(std::string(SCENARIO_SPEC_DIR) + "/" + g.spec + ".spec");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.spec.validate(), "");

  ScenarioEngine engine(parsed.spec);
  ASSERT_TRUE(ok(engine.build()));
  via::Cluster& cluster = engine.cluster();
  for (std::size_t i = 0; i < cluster.size(); ++i)
    cluster.node(static_cast<via::NodeId>(i)).kernel().spans().enable(true);
  engine.enable_timeline();
  engine.set_trace_metrics(
      {"simkern.mem.pinned_frames", "simkern.mem.free_frames"});
  ASSERT_TRUE(ok(engine.run()));
  ASSERT_NE(engine.sampler(), nullptr);

  std::vector<const obs::SpanRecorder*> recorders;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    recorders.push_back(
        &cluster.node(static_cast<via::NodeId>(i)).kernel().spans());
  const std::string trace =
      obs::chrome_trace(recorders, engine.sampler()->chrome_counter_events());
  EXPECT_EQ(hex(fnv1a(trace)), hex(g.trace))
      << "TRACE_SCENARIO_" << engine.spec().name << ".json";
}

INSTANTIATE_TEST_SUITE_P(
    MpSpecs, ScenarioGoldenTrace,
    ::testing::Values(GoldenTrace{"e12-collectives", 0xee6c64aaa6591f4aULL},
                      GoldenTrace{"ps-allreduce", 0xd7425277af6de37cULL}),
    [](const ::testing::TestParamInfo<GoldenTrace>& info) {
      std::string name = info.param.spec;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace vialock::scenario
