// obs_integration_test.cc - whole-stack observability checks (ISSUE/PR4
// acceptance): every subsystem exports through the one registry, the /proc
// tree is readable through the one interface, and the --metrics / trace
// exports are byte-identical across identical runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiments/locktest.h"
#include "fault/fault.h"
#include "mp/collectives.h"
#include "msg/transport.h"
#include "obs/export.h"
#include "svc/kv_server.h"
#include "../via/via_util.h"

namespace vialock {
namespace {

/// First dot-segment of a metric name ("via.agent.register_total" -> "via").
std::string subsystem_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// A two-node cluster exercising all seven instrumented subsystems on the
/// sender node: governor admission (pinmgr), channel transfers (msg),
/// collectives over the matching layer (mp), the registration cache (core),
/// agent/NIC work (via), swap traffic (simkern), and an armed fault engine
/// (fault).
struct FullStackRig {
  FullStackRig()
      : n0(cluster.add_node(test::small_node(via::PolicyKind::Kiobuf,
                                             /*frames=*/2048,
                                             /*tpt_entries=*/2048))),
        n1(cluster.add_node(test::small_node(via::PolicyKind::Kiobuf,
                                             /*frames=*/2048,
                                             /*tpt_entries=*/2048))),
        engine(fault::FaultPlan{}, cluster.clock()),
        channel(cluster, n0, n1, config()) {
    cluster.node(n0).enable_governor();
    cluster.inject_faults(&engine);
    if (!ok(channel.init())) std::abort();
    comm = std::make_unique<mp::Comm>(
        cluster, std::vector<via::NodeId>{n0, n1}, mp_config());
    if (!ok(comm->init())) std::abort();
  }

  static msg::Channel::Config config() {
    msg::Channel::Config cfg;
    cfg.user_heap_bytes = 512 * 1024;
    return cfg;
  }

  static mp::Comm::Config mp_config() {
    mp::Comm::Config cfg;
    cfg.heap_bytes = 256 * 1024;  // the small_node RAM hosts channel + comm
    cfg.unexpected_slots = 8;
    return cfg;
  }

  void transfer_some() {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ok(channel.transfer(msg::Protocol::Rendezvous, 0, 0,
                                      48 * 1024)));
      ASSERT_TRUE(ok(channel.transfer(msg::Protocol::Eager, 0, 0, 512)));
    }
  }

  void collect_some() {
    // mp.coll.* counters + the op-latency histogram land on rank 0's (n0's)
    // registry, alongside the comm's "mp.comm" pull source.
    for (mp::Rank r = 0; r < 2; ++r) {
      const std::uint64_t v = 10 + r;
      ASSERT_TRUE(ok(comm->stage(r, 0, test::bytes_of(v))));
    }
    ASSERT_TRUE(ok(mp::barrier(*comm, /*scratch_offset=*/64)));
    ASSERT_TRUE(ok(mp::allreduce_sum(*comm, 0, 1, /*scratch_offset=*/128)));
  }

  simkern::Kernel& kern() { return cluster.node(n0).kernel(); }

  via::Cluster cluster;
  via::NodeId n0, n1;
  fault::FaultEngine engine;
  msg::Channel channel;
  std::unique_ptr<mp::Comm> comm;
};

TEST(ObsIntegration, SevenSubsystemsEachExportAtLeastThreeMetrics) {
  FullStackRig rig;
  rig.transfer_some();
  rig.collect_some();

  std::map<std::string, int> per_subsystem;
  for (const obs::Metric& m : rig.kern().metrics().snapshot()) {
    ++per_subsystem[subsystem_of(m.name)];
  }
  for (const char* subsystem :
       {"simkern", "via", "core", "pinmgr", "msg", "fault", "mp"}) {
    EXPECT_GE(per_subsystem[subsystem], 3) << subsystem;
  }
}

TEST(ObsIntegration, ProcTreeServesEveryMountedNode) {
  FullStackRig rig;
  rig.transfer_some();

  const obs::ProcRegistry& proc = rig.kern().procfs();
  for (const char* path : {"meminfo", "vmstat", "metrics", "via/agent",
                           "pinmgr"}) {
    const auto text = proc.read(path);
    ASSERT_TRUE(text.has_value()) << path;
    EXPECT_FALSE(text->empty()) << path;
  }
  // The channel's registration cache mounts a per-pid node.
  bool saw_regcache = false;
  for (const std::string& path : proc.ls()) {
    saw_regcache |= path.rfind("regcache/p", 0) == 0;
  }
  EXPECT_TRUE(saw_regcache);
  // /proc/metrics is the registry snapshot, same bytes as the exporter.
  EXPECT_EQ(proc.read("metrics").value_or(""),
            obs::to_proc_text(rig.kern().metrics().snapshot()));
}

/// FNV-1a, 64-bit (the hash tests/scenario/golden_test.cc pins).
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

TEST(ObsIntegration, ProcNodesMatchPinnedHashes) {
  // Byte oracle for the /proc tree: every node both hosts mount, after a
  // fixed workload, must hash to the pinned value. A refactor of how the
  // renderers or the registry produce their text must leave these alone;
  // a change that exports new metrics moves only the "metrics" nodes.
  FullStackRig rig;
  rig.transfer_some();
  rig.collect_some();

  const std::map<std::string, std::uint64_t> pinned = {
      {"n0:meminfo", 0x06835d9a666a9c0bULL},
      {"n0:metrics", 0xb78452e689494bf8ULL},
      {"n0:pinmgr", 0x7a0b5917d63b1988ULL},
      {"n0:regcache/p1", 0x303ce3f18af74fa1ULL},
      {"n0:regcache/p2", 0xeee7c78039feef95ULL},
      {"n0:via/agent", 0x72c7263dd1f440deULL},
      {"n0:vmstat", 0x673e558a7d1d38e8ULL},
      {"n1:meminfo", 0x06835d9a666a9c0bULL},
      {"n1:metrics", 0x7e1ab6256f662445ULL},
      {"n1:regcache/p1", 0x303ce3f18af74fa1ULL},
      {"n1:regcache/p2", 0xeee7c78039feef95ULL},
      {"n1:via/agent", 0x72c7263dd1f440deULL},
      {"n1:vmstat", 0x673e558a7d1d38e8ULL},
  };
  std::map<std::string, std::uint64_t> seen;
  for (const auto& [tag, id] : {std::pair{"n0", rig.n0}, {"n1", rig.n1}}) {
    const obs::ProcRegistry& proc = rig.cluster.node(id).kernel().procfs();
    for (const std::string& path : proc.ls())
      seen[std::string(tag) + ":" + path] = fnv1a(proc.read(path).value());
  }
  for (const auto& [node, hash] : seen) {
    const auto it = pinned.find(node);
    ASSERT_NE(it, pinned.end()) << "unpinned /proc node " << node;
    EXPECT_EQ(hex(hash), hex(it->second)) << "/proc/" << node;
  }
  EXPECT_EQ(seen.size(), pinned.size());
}

TEST(ObsIntegration, EveryTableRowIsExportedOnceWithItsKind) {
  // The field tables are the only lists of what a source exports: every
  // field row of every registered table must reach the registry snapshot
  // exactly once, under `<source>.<row>` and with the row's kind. A kv
  // server joins n1 so the svc table is covered too.
  FullStackRig rig;
  svc::KvServer server(rig.cluster, rig.n1, svc::KvServerConfig{});
  rig.transfer_some();
  rig.collect_some();

  std::set<std::string> sources;
  for (const via::NodeId id : {rig.n0, rig.n1}) {
    const obs::MetricRegistry& reg = rig.cluster.node(id).kernel().metrics();
    std::map<std::string, std::vector<obs::MetricKind>> snap;
    for (const obs::Metric& m : reg.snapshot())
      snap[m.name].push_back(m.kind);
    reg.for_each_source([&](std::string_view source, obs::MetricTable rows) {
      sources.emplace(source);
      for (const obs::MetricRow& r : rows) {
        if (r.name.empty()) {
          // Only a computed /proc-only line may stay out of the registry.
          EXPECT_FALSE(r.is_field()) << "unexported field row in " << source;
          EXPECT_FALSE(r.proc.empty()) << source;
          continue;
        }
        const std::string name =
            std::string(source) + "." + std::string(r.name);
        const auto it = snap.find(name);
        ASSERT_NE(it, snap.end()) << name;
        ASSERT_EQ(it->second.size(), 1u) << name;
        EXPECT_EQ(it->second[0], r.kind) << name;
      }
    });
  }
  for (const char* source : {"simkern", "obs", "fault", "via.nic", "via.agent",
                             "pinmgr", "mp.comm", "svc"}) {
    EXPECT_TRUE(sources.count(source)) << source;
  }
  EXPECT_TRUE(sources.count("msg.ch.p1.d1"));
  EXPECT_TRUE(sources.count("core.regcache.p1"));
}

/// Every row of `rows` with a /proc key must appear as a "key value" line
/// of `text`, carrying the row's current value. vmstat keys come from the
/// proc column; the other nodes print their named field rows.
void expect_proc_rows(const std::string& text, obs::MetricTable rows,
                      const void* owner, const void* obj, bool vmstat) {
  std::size_t keyed = 0;
  for (const obs::MetricRow& r : rows) {
    const std::string_view key =
        vmstat ? r.proc : (r.is_field() ? r.name : std::string_view{});
    if (key.empty()) continue;
    ++keyed;
    std::string line(key);
    line.append(" ").append(std::to_string(r.value(owner, obj)));
    const bool first = text.rfind(line + "\n", 0) == 0;
    EXPECT_TRUE(first || text.find("\n" + line + "\n") != std::string::npos)
        << "missing \"" << line << "\" in:\n" << text;
  }
  EXPECT_GE(keyed, 10u);
}

TEST(ObsIntegration, EveryProcTableRowAppearsInItsNode) {
  FullStackRig rig;
  rig.transfer_some();
  rig.collect_some();

  via::Node& node = rig.cluster.node(rig.n0);
  const obs::ProcRegistry& proc = node.kernel().procfs();
  expect_proc_rows(proc.read("vmstat").value(), simkern::Kernel::metric_rows(),
                   &node.kernel(), &node.kernel().stats(), /*vmstat=*/true);
  expect_proc_rows(proc.read("via/agent").value(),
                   via::KernelAgent::metric_rows(), &node.agent(),
                   &node.agent().stats(), false);
  ASSERT_NE(node.governor(), nullptr);
  expect_proc_rows(proc.read("pinmgr").value(),
                   pinmgr::PinGovernor::metric_rows(), node.governor(),
                   &node.governor()->stats(), false);
  // The channel's sender-side cache is n0's first process.
  expect_proc_rows(proc.read("regcache/p1").value(),
                   core::RegistrationCache::metric_rows(), nullptr,
                   &rig.channel.sender_cache_stats(), false);
}

/// `"key": "value"` string field of a one-event-per-line chrome trace line;
/// empty when absent.
std::string field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return {};
  const auto start = pos + pat.size();
  return line.substr(start, line.find('"', start) - start);
}

TEST(ObsIntegration, FlowEventIdsResolveToEmittedSpans) {
  // Real two-host traffic (channel transfers + collectives), both hosts'
  // recorders merged: every flow event ("s"/"t"/"f") in the export must
  // reference a trace id that some emitted span actually carries - the
  // well-formedness contract a chrome-trace viewer relies on to draw the
  // cross-process arrows.
  FullStackRig rig;
  rig.cluster.node(rig.n0).kernel().spans().enable(true);
  rig.cluster.node(rig.n1).kernel().spans().enable(true);
  rig.transfer_some();
  rig.collect_some();

  const std::string trace =
      obs::chrome_trace({&rig.cluster.node(rig.n0).kernel().spans(),
                         &rig.cluster.node(rig.n1).kernel().spans()});
  std::set<std::string> span_traces;
  std::vector<std::pair<std::string, std::string>> flows;  // (ph, id)
  std::istringstream in(trace);
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = field(line, "ph");
    if (ph == "X") {
      const std::string t = field(line, "trace");
      if (!t.empty()) span_traces.insert(t);
    } else if (ph == "s" || ph == "t" || ph == "f") {
      flows.emplace_back(ph, field(line, "id"));
    }
  }
  ASSERT_FALSE(flows.empty())
      << "cross-host transfers must stitch at least one flow chain";
  bool saw_start = false, saw_finish = false;
  for (const auto& [ph, id] : flows) {
    EXPECT_TRUE(span_traces.count(id))
      << "flow \"" << ph << "\" references unknown trace " << id;
    saw_start |= ph == "s";
    saw_finish |= ph == "f";
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_finish);
}

/// One instrumented pressure locktest (what `bench_e1_locktest --metrics
/// --trace-export` runs), returning all three export documents.
struct Exports {
  std::string proc_text;
  std::string json;
  std::string trace;
};

Exports run_instrumented_locktest() {
  Clock clock;
  CostModel costs;
  via::Node node(test::small_node(via::PolicyKind::Kiobuf, /*frames=*/1024),
                 clock, costs);
  node.kernel().spans().enable(true);
  experiments::LocktestConfig cfg;
  cfg.region_pages = 64;
  cfg.pressure_factor = 1.5;
  const auto r = experiments::run_locktest(node, cfg);
  EXPECT_TRUE(ok(r.status));
  return {obs::to_proc_text(node.kernel().metrics().snapshot()),
          obs::to_json(node.kernel().metrics().snapshot()),
          obs::chrome_trace(node.kernel().spans())};
}

TEST(ObsIntegration, MetricAndTraceExportsAreByteIdenticalAcrossRuns) {
  const Exports a = run_instrumented_locktest();
  const Exports b = run_instrumented_locktest();
  EXPECT_EQ(a.proc_text, b.proc_text);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.trace, b.trace);
  // The run did real work: registration latency histogram and spans exist.
  EXPECT_NE(a.proc_text.find("via.agent.register_ns.count"),
            std::string::npos);
  EXPECT_NE(a.trace.find("via.register_mem"), std::string::npos);
}

}  // namespace
}  // namespace vialock
