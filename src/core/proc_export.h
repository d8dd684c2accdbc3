// proc_export.h - /proc-style text reports over the VIA stack's own
// counters, the upper-layer companions to simkern::procfs (meminfo/vmstat).
// Each returns "key value\n" lines in a fixed order so outputs diff cleanly
// across runs and commits.
//
// These renderers are now also *mounted*: every exporting component
// registers its renderer with the node kernel's obs::ProcRegistry in its
// constructor (KernelAgent -> "via/agent", RegistrationCache ->
// "regcache/p<pid>", PinGovernor -> "pinmgr", the kernel itself ->
// "meminfo"/"vmstat"/"metrics"), so `kernel.procfs().read(path)` /
// `read_all()` is the one interface that reaches every report. The free
// functions remain for callers that hold a bare stats struct.
#pragma once

#include <string>

#include "core/reg_cache.h"
#include "via/kernel_agent.h"

namespace vialock::core {

/// /proc/via/agent. Compatibility alias: the renderer moved next to the
/// stats it prints (via::agent_status) when the agent began mounting it.
[[nodiscard]] inline std::string agent_status(const via::AgentStats& stats) {
  return via::agent_status(stats);
}

/// /proc/regcache/p<pid>: a registration cache's hit/miss/eviction counters.
[[nodiscard]] inline std::string regcache_status(const RegCacheStats& stats) {
  return obs::render_fields(RegistrationCache::metric_rows(), &stats);
}

}  // namespace vialock::core
