#include "pinmgr/pin_procfs.h"

#include <sstream>

namespace vialock::pinmgr {

std::string pinstat(const PinGovernor& gov) {
  std::ostringstream os;
  os << "ceiling_pages " << gov.ceiling() << "\n"
     << "charged_pages " << gov.total_charged() << "\n"
     << "guaranteed_reserve " << gov.config().guaranteed_reserve << "\n"
     << "lazy_batch " << gov.config().lazy_batch << "\n"
     << "lazy_queue_depth " << gov.lazy_queue_depth() << "\n"
     << obs::render_fields(PinGovernor::metric_rows(), &gov.stats());
  const auto tenants = gov.tenants();
  os << "tenants " << tenants.size() << "\n";
  for (const TenantInfo& t : tenants) {
    os << "tenant " << t.pid << " tier=" << to_string(t.tier)
       << " quota=" << t.quota << " charged=" << t.charged
       << " peak=" << t.peak << " admissions=" << t.admissions
       << " rejections=" << t.rejections << "\n";
  }
  return os.str();
}

}  // namespace vialock::pinmgr
