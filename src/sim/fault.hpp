// Fault injection for the vPHI transport.
//
// The backend services ring requests from *untrusted* guest frontends — from
// the host's point of view a VM is just a process — so every layer of the
// transport must survive a peer that lies, drops, delays or corrupts. This
// injector is the machinery that proves it: each FaultSite names one concrete
// point in the stack (a kmalloc that can return ENOMEM, a kick that can be
// swallowed, a header that can be scribbled over, a descriptor chain that can
// be cut short or bent into a cycle). Sites consult the process-global
// injector on their hot path; a single relaxed atomic keeps the disarmed cost
// at one load.
//
// Triggers compose per site:
//   * deterministic Nth hit — fire on exactly the nth consultation since arm
//     (the reproducible unit-test mode),
//   * probabilistic      — fire with probability p per hit, driven by the
//     deterministic sim::Rng (soak/stress mode),
//   * max_fires          — cap total fires so a test can inject exactly one
//     fault and then watch the stack recover.
//
// Every fire is counted and logged (VPHI_LOG kWarn, component "fault") so an
// injected fault is always observable alongside the transport's own error /
// timeout / retry counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "sim/metrics.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace vphi::sim {

/// One entry per fault point threaded through the transport.
enum class FaultSite : int {
  kKmallocNoMem = 0,       ///< GuestPhysMem::kmalloc returns kNoMemory
  kKickDrop,               ///< doorbell lost in kick_prepare (chain stranded)
  kKickDelay,              ///< Virtqueue::kick delayed by delay_ns
  kCorruptRequestHeader,   ///< frontend posts a garbage RequestHeader
  kCorruptResponseStatus,  ///< backend answers with an invalid status int
  kCorruptResponseRet,     ///< backend answers kOk but an absurd ret0
  kShortUsedWrite,         ///< backend pushes used.len = 0 (short write)
  kTruncateChain,          ///< device-side walk loses the chain's tail
  kCycleChain,             ///< device-side walk sees a cyclic chain
  kSgMisalign,             ///< frontend emits a misaligned sg-list gpa
  kSgLenOverflow,          ///< frontend inflates an sg-list entry length
  kAdmissionReject,        ///< JobService::admit rejects an otherwise-valid job
  kQuotaExhaust,           ///< QuotaLedger reports a window as exhausted
  kNumSites,
};

inline constexpr int kNumFaultSites = static_cast<int>(FaultSite::kNumSites);

const char* fault_site_name(FaultSite site) noexcept;

/// Per-site trigger configuration. All triggers are evaluated per hit
/// (consultation); a site fires when either trigger says so, subject to
/// max_fires.
struct FaultConfig {
  double probability = 0.0;  ///< [0,1] chance per hit
  std::uint64_t nth = 0;     ///< fire on exactly the nth hit since arm (1-based);
                             ///< 0 disables the deterministic trigger
  std::uint64_t max_fires = 0;  ///< total fire budget; 0 = unlimited
  Nanos delay_ns = 0;           ///< extra latency for delay-flavoured sites
};

class FaultInjector {
 public:
  FaultInjector();

  void arm(FaultSite site, const FaultConfig& config) VPHI_EXCLUDES(mu_);
  /// Fire exactly on the nth upcoming hit (and, by default, only once).
  void arm_nth(FaultSite site, std::uint64_t nth, std::uint64_t max_fires = 1)
      VPHI_EXCLUDES(mu_);
  /// Fire with probability p on every hit.
  void arm_probability(FaultSite site, double p) VPHI_EXCLUDES(mu_);
  void disarm_all() VPHI_EXCLUDES(mu_);
  bool armed(FaultSite site) const VPHI_EXCLUDES(mu_);

  /// Consult at the fault point: records the hit and decides whether the
  /// fault fires now. Cheap (one relaxed load) when nothing is armed.
  /// Every fire triggers a flight-recorder dump; call sites that know the
  /// request riding the faulted path pass its trace id as `focus` so the
  /// dump leads with that request's span chain.
  bool should_fire(FaultSite site, TraceId focus = 0) noexcept
      VPHI_EXCLUDES(mu_);

  /// The configured injection delay for `site` (kKickDelay and friends).
  Nanos delay_ns(FaultSite site) const noexcept VPHI_EXCLUDES(mu_);

  std::uint64_t fires(FaultSite site) const noexcept VPHI_EXCLUDES(mu_);

  /// Zero all hit/fire counters (armed configs stay).
  void reset_counters() VPHI_EXCLUDES(mu_);
  /// Reseed the probabilistic trigger (deterministic replay).
  void seed(std::uint64_t s) VPHI_EXCLUDES(mu_);

 private:
  struct Site {
    FaultConfig config;
    bool armed = false;
    std::uint64_t hits_since_arm = 0;
    std::uint64_t fires = 0;
  };

  bool decide_locked(Site& s) noexcept VPHI_REQUIRES(mu_);

  mutable Mutex mu_;
  Site sites_[kNumFaultSites] VPHI_GUARDED_BY(mu_);
  std::uint64_t rng_state_ VPHI_GUARDED_BY(mu_) = 0x9E3779B97F4A7C15ull;
  std::atomic<int> armed_count_{0};
  // Cumulative hit and fire counts under registry names
  // ("vphi.fault.<site>.hits/.fires") so a metrics snapshot shows injected
  // faults next to the transport's own error counters. The raw Site fields
  // keep the arm-relative semantics (max_fires budgets, nth triggers).
  std::unique_ptr<metrics::Counter> hit_counters_[kNumFaultSites];
  std::unique_ptr<metrics::Counter> fire_counters_[kNumFaultSites];
};

/// The process-global injector the transport fault points consult.
FaultInjector& fault_injector();

}  // namespace vphi::sim
