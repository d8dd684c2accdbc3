// bench_host_microbench - google-benchmark timings of the simulator itself
// (host wall-clock, not virtual time): how fast the substrate executes fault
// handling, registration, reclaim and transfers. Useful for keeping the
// experiment binaries quick; unrelated to the paper's claims.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "experiments/pressure.h"
#include "mp/comm.h"
#include "msg/transport.h"
#include "via/node.h"

namespace vialock {
namespace {

using simkern::kPageShift;
using simkern::kPageSize;

simkern::KernelConfig bench_kernel() {
  simkern::KernelConfig cfg;
  cfg.frames = 2048;
  cfg.swap_slots = 8192;
  return cfg;
}

void BM_DemandZeroFault(benchmark::State& state) {
  Clock clock;
  simkern::Kernel kern(bench_kernel(), clock);
  const auto pid = kern.create_task("t");
  const auto prot = simkern::VmFlag::Read | simkern::VmFlag::Write;
  std::uint64_t i = 0;
  auto addr = kern.sys_mmap_anon(pid, 1024 * kPageSize, prot);
  for (auto _ : state) {
    if (i == 1024) {
      // Recycle the region outside the timed loop cadence.
      state.PauseTiming();
      (void)kern.sys_munmap(pid, *addr, 1024 * kPageSize);
      addr = kern.sys_mmap_anon(pid, 1024 * kPageSize, prot);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(kern.touch(pid, *addr + (i++ << kPageShift), true));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandZeroFault);

void BM_KiobufRegisterDeregister(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  Clock clock;
  CostModel costs;
  via::NodeSpec spec;
  spec.kernel = bench_kernel();
  spec.policy = via::PolicyKind::Kiobuf;
  via::Node node(spec, clock, costs);
  auto& kern = node.kernel();
  const auto pid = kern.create_task("t");
  const auto addr = *kern.sys_mmap_anon(
      pid, pages * kPageSize, simkern::VmFlag::Read | simkern::VmFlag::Write);
  for (std::uint64_t p = 0; p < pages; ++p)
    (void)kern.touch(pid, addr + (p << kPageShift), true);
  const auto tag = node.agent().create_ptag(pid);
  for (auto _ : state) {
    via::MemHandle mh;
    benchmark::DoNotOptimize(
        node.agent().register_mem(pid, addr, pages * kPageSize, tag, mh));
    benchmark::DoNotOptimize(node.agent().deregister_mem(mh));
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_KiobufRegisterDeregister)->Arg(1)->Arg(16)->Arg(256);

void BM_EagerTransfer(benchmark::State& state) {
  const auto len = static_cast<std::uint32_t>(state.range(0));
  via::Cluster cluster;
  via::NodeSpec spec;
  spec.kernel = bench_kernel();
  spec.policy = via::PolicyKind::Kiobuf;
  const auto n0 = cluster.add_node(spec);
  const auto n1 = cluster.add_node(spec);
  msg::Channel::Config cfg;
  cfg.user_heap_bytes = 1ULL << 20;
  msg::Channel channel(cluster, n0, n1, cfg);
  if (!ok(channel.init())) state.SkipWithError("channel init failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        channel.transfer(msg::Protocol::Eager, 0, 0, len));
  }
  state.SetBytesProcessed(state.iterations() * len);
}
BENCHMARK(BM_EagerTransfer)->Arg(64)->Arg(4096);

/// A communicator of `ranks` ranks, one per host, every pair linked by VIs.
struct MpBox {
  explicit MpBox(std::uint32_t ranks) {
    via::NodeSpec spec;
    spec.kernel = bench_kernel();
    spec.policy = via::PolicyKind::Kiobuf;
    std::vector<via::NodeId> nodes;
    for (std::uint32_t r = 0; r < ranks; ++r)
      nodes.push_back(cluster.add_node(spec));
    mp::Comm::Config cfg;
    cfg.eager_credits = 4;
    cfg.eager_slot_size = 4096;
    cfg.unexpected_slots = 8;
    cfg.heap_bytes = 64 * 1024;
    comm = std::make_unique<mp::Comm>(cluster, std::move(nodes), cfg);
  }
  via::Cluster cluster;
  std::unique_ptr<mp::Comm> comm;
};

// One progress() with nothing in flight: the cost every isend/irecv/test
// pays before it does its own work.
void BM_MpProgressIdle(benchmark::State& state) {
  MpBox box(static_cast<std::uint32_t>(state.range(0)));
  if (!ok(box.comm->init())) state.SkipWithError("comm init failed");
  for (auto _ : state) box.comm->progress();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpProgressIdle)->Arg(8)->Arg(32);

// A matched 64 B eager message between two of eight ranks: irecv, isend and
// both waits, each with its progress() pass.
void BM_MpEagerSendRecv(benchmark::State& state) {
  MpBox box(8);
  if (!ok(box.comm->init())) state.SkipWithError("comm init failed");
  for (auto _ : state) {
    const mp::ReqId r = box.comm->irecv(1, 0, 0, 0, 4096);
    const mp::ReqId s = box.comm->isend(0, 1, 0, 0, 64);
    benchmark::DoNotOptimize(box.comm->wait(s));
    benchmark::DoNotOptimize(box.comm->wait(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpEagerSendRecv);

void BM_PressureCycle(benchmark::State& state) {
  for (auto _ : state) {
    Clock clock;
    simkern::Kernel kern(bench_kernel(), clock);
    const auto pr = experiments::apply_memory_pressure(kern, 1.2);
    benchmark::DoNotOptimize(pr.pages_touched);
  }
}
BENCHMARK(BM_PressureCycle)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vialock

BENCHMARK_MAIN();
