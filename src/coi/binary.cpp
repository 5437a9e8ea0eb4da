#include "coi/binary.hpp"

namespace vphi::coi {

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry registry;
  return registry;
}

void KernelRegistry::register_kernel(const std::string& name, KernelFn fn) {
  sim::MutexLock lock(mu_);
  table_[name] = std::move(fn);
}

sim::Expected<KernelFn> KernelRegistry::lookup(const std::string& name) const {
  sim::MutexLock lock(mu_);
  auto it = table_.find(name);
  if (it == table_.end()) return sim::Status::kNoSuchEntry;
  return it->second;
}

}  // namespace vphi::coi
