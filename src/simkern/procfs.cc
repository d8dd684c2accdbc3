#include "simkern/procfs.h"

#include <sstream>

namespace vialock::simkern {

namespace {

void line(std::ostringstream& os, const char* key, std::uint64_t pages) {
  os << key << ": " << (pages * kPageSize) / 1024 << " kB\n";
}

}  // namespace

std::string meminfo(const Kernel& kern) {
  std::ostringstream os;
  const auto& phys = kern.phys();
  std::uint64_t cached = 0;
  std::uint64_t pinned = 0;
  std::uint64_t locked = 0;
  std::uint64_t reserved = 0;
  for (Pfn pfn = 0; pfn < phys.num_frames(); ++pfn) {
    const Page& pg = phys.page(pfn);
    if (pg.in_page_cache()) ++cached;
    if (pg.pinned()) ++pinned;
    if (pg.locked()) ++locked;
    if (pg.reserved()) ++reserved;
  }
  line(os, "MemTotal", kern.config().frames);
  line(os, "MemFree", kern.free_frames());
  line(os, "Cached", cached);
  line(os, "Pinned", pinned);
  line(os, "PinBudget", kern.pin_budget());
  line(os, "PG_locked", locked);
  line(os, "Reserved", reserved);
  line(os, "SwapTotal", kern.swap().num_slots());
  line(os, "SwapUsed", kern.swap().used_slots());
  return os.str();
}

std::string vmstat(const Kernel& kern) {
  std::ostringstream os;
  for (const obs::MetricRow& r : Kernel::metric_rows()) {
    if (!r.proc.empty())
      os << r.proc << " " << r.value(&kern, &kern.stats()) << "\n";
  }
  // Cumulative injection counters per fault site, when chaos is armed.
  if (const fault::FaultEngine* fe = kern.fault_engine()) {
    for (std::size_t i = 0; i < fault::kNumFaultSites; ++i) {
      const auto site = static_cast<fault::FaultSite>(i);
      os << "fault_injected_" << fault::to_string(site) << " "
         << fe->stats().injected(site) << "\n";
    }
  }
  return os.str();
}

std::string task_status(const Kernel& kern, Pid pid) {
  std::ostringstream os;
  if (!kern.task_exists(pid)) {
    os << "pid " << pid << ": no such task\n";
    return os.str();
  }
  const Task& t = kern.task(pid);
  std::uint64_t vm_pages = 0;
  std::uint64_t locked_vmas = 0;
  t.mm.vmas.for_each([&](const Vma& vma) {
    vm_pages += vma.pages();
    if (has(vma.flags, VmFlag::Locked)) locked_vmas += vma.pages();
  });
  os << "Name: " << t.name << "\n"
     << "Pid: " << t.pid << "\n";
  line(os, "VmSize", vm_pages);
  line(os, "VmRSS", t.mm.rss);
  line(os, "VmLck", locked_vmas);
  os << "Vmas: " << t.mm.vmas.count() << "\n"
     << "CapIpcLock: " << (t.capable(Capability::IpcLock) ? "yes" : "no")
     << "\n";
  return os.str();
}

}  // namespace vialock::simkern
