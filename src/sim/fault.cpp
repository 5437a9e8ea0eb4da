#include "sim/fault.hpp"

#include <string>

#include "sim/log.hpp"
#include "sim/recorder.hpp"

namespace vphi::sim {

const char* fault_site_name(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kKmallocNoMem: return "kmalloc-nomem";
    case FaultSite::kKickDrop: return "kick-drop";
    case FaultSite::kKickDelay: return "kick-delay";
    case FaultSite::kCorruptRequestHeader: return "corrupt-request-header";
    case FaultSite::kCorruptResponseStatus: return "corrupt-response-status";
    case FaultSite::kCorruptResponseRet: return "corrupt-response-ret";
    case FaultSite::kShortUsedWrite: return "short-used-write";
    case FaultSite::kTruncateChain: return "truncate-chain";
    case FaultSite::kCycleChain: return "cycle-chain";
    case FaultSite::kSgMisalign: return "sg-misalign";
    case FaultSite::kSgLenOverflow: return "sg-len-overflow";
    case FaultSite::kAdmissionReject: return "admission-reject";
    case FaultSite::kQuotaExhaust: return "quota-exhaust";
    case FaultSite::kNumSites: break;
  }
  return "unknown";
}

FaultInjector::FaultInjector() {
  for (int i = 0; i < kNumFaultSites; ++i) {
    const std::string base =
        std::string("vphi.fault.") +
        fault_site_name(static_cast<FaultSite>(i));
    hit_counters_[i] = std::make_unique<metrics::Counter>(base + ".hits");
    fire_counters_[i] = std::make_unique<metrics::Counter>(base + ".fires");
  }
}

void FaultInjector::arm(FaultSite site, const FaultConfig& config) {
  MutexLock lock(mu_);
  Site& s = sites_[static_cast<int>(site)];
  if (!s.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  s.config = config;
  s.armed = true;
  // Arming re-baselines the site: both the hit counter the nth-trigger is
  // measured against and the fire budget max_fires is charged against start
  // from zero. Without this a site armed, fired and disarmed once would stay
  // exhausted for every later arm in the same process.
  s.hits_since_arm = 0;
  s.fires = 0;
}

void FaultInjector::arm_nth(FaultSite site, std::uint64_t nth,
                            std::uint64_t max_fires) {
  FaultConfig config;
  config.nth = nth;
  config.max_fires = max_fires;
  arm(site, config);
}

void FaultInjector::arm_probability(FaultSite site, double p) {
  FaultConfig config;
  config.probability = p;
  arm(site, config);
}

void FaultInjector::disarm_all() {
  MutexLock lock(mu_);
  for (Site& s : sites_) {
    s.armed = false;
    s.config = FaultConfig{};
  }
  armed_count_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::decide_locked(Site& s) noexcept {
  if (!s.armed) return false;
  if (s.config.max_fires != 0 && s.fires >= s.config.max_fires) return false;
  bool fire = s.config.nth != 0 && s.hits_since_arm == s.config.nth;
  if (!fire && s.config.probability > 0.0) {
    // SplitMix64 step (same generator as sim::Rng), inlined so the injector
    // owns its replayable stream.
    std::uint64_t z = (rng_state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    fire = u < s.config.probability;
  }
  if (fire) ++s.fires;
  return fire;
}

bool FaultInjector::should_fire(FaultSite site, TraceId focus) noexcept {
  if (armed_count_.load(std::memory_order_relaxed) == 0) return false;
  bool fire;
  {
    MutexLock lock(mu_);
    Site& s = sites_[static_cast<int>(site)];
    hit_counters_[static_cast<int>(site)]->inc();
    if (s.armed) ++s.hits_since_arm;
    fire = decide_locked(s);
    if (fire) {
      fire_counters_[static_cast<int>(site)]->inc();
      VPHI_LOG(kWarn, "fault") << "injecting " << fault_site_name(site)
                               << " (hit " << s.hits_since_arm << ", fire "
                               << s.fires << ")";
    }
  }
  if (fire) {
    // Every injected fault becomes a diagnosable incident: dump the flight
    // recorder's window (outside mu_ — the dump reads the tracer). When the
    // call site passed the faulted request's trace id, the dump leads with
    // that request's full span chain.
    flight_recorder().dump(
        std::string("injected fault: ") + fault_site_name(site), focus);
  }
  return fire;
}

Nanos FaultInjector::delay_ns(FaultSite site) const noexcept {
  MutexLock lock(mu_);
  return sites_[static_cast<int>(site)].config.delay_ns;
}

void FaultInjector::seed(std::uint64_t s) {
  MutexLock lock(mu_);
  rng_state_ = s;
}

FaultInjector& fault_injector() {
  static FaultInjector injector;
  return injector;
}

}  // namespace vphi::sim
