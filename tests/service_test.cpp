// Tests for the tenant control plane (src/service/): job validation with
// structured rejection reasons, quota windows on the simulated clock,
// WFQ+EDF card scheduling with the preempt-exactly-once contract, the
// mutex-guarded JobService front door (including its fault-injection
// sites and per-tenant metric exactness), the lock-free FleetTenantPolicy
// riding the sharded engine's TenantHooks, and the integration points
// grown this PR: the COI daemon's admission gate, the fabric's occupancy
// listener and the event loop's throttle hook.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coi/binary.hpp"
#include "coi/process.hpp"
#include "metric_reads.hpp"
#include "service/fleet_policy.hpp"
#include "service/job.hpp"
#include "service/job_service.hpp"
#include "service/quota.hpp"
#include "service/scheduler.hpp"
#include "service/slo_monitor.hpp"
#include "sim/actor.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/recorder.hpp"
#include "sim/time.hpp"
#include "tools/testbed.hpp"
#include "workloads/dgemm.hpp"

namespace vphi::service {
namespace {

using sim::Nanos;

Job good_job() {
  Job j;
  j.tenant = "acme";
  j.bytes = 4096;
  j.nthreads = 8;
  j.kernel = "dgemm";
  return j;
}

// ---------------------------------------------------------------------------
// Job validation: first failing check wins, details are well-formed.

TEST(JobValidation, AcceptsAWellFormedJob) {
  EXPECT_FALSE(validate_job(good_job(), JobLimits{}).has_value());
}

TEST(JobValidation, MalformedBeforeTooLarge) {
  JobLimits limits;
  Job j = good_job();
  j.tenant.clear();
  j.bytes = limits.max_bytes + 1;  // also too large, but malformed wins
  auto bad = validate_job(j, limits);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->reason, RejectReason::kMalformed);
  EXPECT_FALSE(bad->detail.empty());

  j = good_job();
  j.kernel.clear();
  EXPECT_EQ(validate_job(j, limits)->reason, RejectReason::kMalformed);

  j = good_job();
  j.nthreads = 0;
  EXPECT_EQ(validate_job(j, limits)->reason, RejectReason::kMalformed);
}

TEST(JobValidation, TooLargeNamesTheOffendingField) {
  JobLimits limits;
  Job j = good_job();
  j.bytes = limits.max_bytes + 1;
  auto bad = validate_job(j, limits);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->reason, RejectReason::kTooLarge);
  EXPECT_NE(bad->detail.find("bytes"), std::string::npos);

  j = good_job();
  j.nthreads = limits.max_threads + 1;
  EXPECT_EQ(validate_job(j, limits)->reason, RejectReason::kTooLarge);

  j = good_job();
  j.est_card_ns = limits.max_est_card_ns + 1;
  EXPECT_EQ(validate_job(j, limits)->reason, RejectReason::kTooLarge);
}

TEST(JobValidation, ReasonNamesAreWireStable) {
  // The u32 values ride the COI kError payload; renumbering breaks guests.
  EXPECT_EQ(static_cast<std::uint32_t>(RejectReason::kNone), 0u);
  EXPECT_EQ(static_cast<std::uint32_t>(RejectReason::kMalformed), 1u);
  EXPECT_EQ(static_cast<std::uint32_t>(RejectReason::kFaultInjected), 7u);
  for (std::uint32_t v = 0;
       v < static_cast<std::uint32_t>(RejectReason::kNumReasons); ++v) {
    EXPECT_TRUE(valid_reject_reason_int(v));
    EXPECT_NE(std::string(reject_reason_name(static_cast<RejectReason>(v))),
              "");
  }
  EXPECT_FALSE(valid_reject_reason_int(
      static_cast<std::uint32_t>(RejectReason::kNumReasons)));
}

// ---------------------------------------------------------------------------
// QuotaLedger: windows roll on the simulated clock, dimensions independent.

TEST(QuotaLedger, ByteWindowRefusesThenRefills) {
  TenantSpec spec{.name = "t", .bytes_per_window = 10'000,
                  .window_ns = sim::kSecond};
  QuotaLedger lg{spec};
  EXPECT_EQ(lg.try_admit(6'000, 0), RejectReason::kNone);
  EXPECT_EQ(lg.bytes_headroom(0), 4'000u);
  EXPECT_EQ(lg.try_admit(6'000, 100), RejectReason::kQuotaBytes);
  // Refused admissions charge nothing.
  EXPECT_EQ(lg.bytes_headroom(100), 4'000u);
  // The next window forgets the charges.
  EXPECT_EQ(lg.window_refill_ns(100), sim::kSecond);
  EXPECT_EQ(lg.try_admit(6'000, sim::kSecond), RejectReason::kNone);
}

TEST(QuotaLedger, InflightIsAGateNotARate) {
  TenantSpec spec{.name = "t", .max_inflight = 2};
  QuotaLedger lg{spec};
  EXPECT_EQ(lg.try_admit(1, 0), RejectReason::kNone);
  EXPECT_EQ(lg.try_admit(1, 0), RejectReason::kNone);
  EXPECT_EQ(lg.try_admit(1, 0), RejectReason::kQuotaInflight);
  // Windows rolling does NOT release inflight slots — only completion does.
  EXPECT_EQ(lg.try_admit(1, 5 * sim::kSecond), RejectReason::kQuotaInflight);
  lg.on_complete();
  EXPECT_EQ(lg.try_admit(1, 5 * sim::kSecond), RejectReason::kNone);
}

TEST(QuotaLedger, CardNsIsATrailingCharge) {
  TenantSpec spec{.name = "t", .card_ns_per_window = 1'000,
                  .window_ns = sim::kSecond};
  QuotaLedger lg{spec};
  // Nothing consumed yet: admit, and do not pre-charge card time.
  EXPECT_EQ(lg.try_admit(64, 0), RejectReason::kNone);
  lg.charge_card_ns(1'500, 10);
  EXPECT_EQ(lg.card_ns_headroom(10), 0);
  EXPECT_EQ(lg.try_admit(64, 20), RejectReason::kQuotaCardNs);
  // The overdraft is forgotten at the window boundary.
  EXPECT_GT(lg.card_ns_headroom(sim::kSecond), 0);
}

// ---------------------------------------------------------------------------
// FairScheduler: WFQ shares, EDF class, preempt exactly once.

sim::CardJob mk_job(std::uint32_t vm, std::uint32_t bytes, Nanos t,
                    std::uint64_t seq) {
  sim::CardJob j;
  j.vm = vm;
  j.bytes = bytes;
  j.enqueue_ns = t;
  j.ready_ns = t;
  j.submit_ts = t;
  j.seq = seq;
  return j;
}

TEST(FairScheduler, WeightedSharesDrainProportionally) {
  FairSchedulerConfig cfg;
  cfg.tenant_of = [](std::uint32_t vm) { return vm; };  // vm == tenant
  cfg.weights = {4.0, 1.0};
  FairScheduler sched{cfg};
  // Equal backlogs; the 4x tenant should get 4 of the first 5 dispatches.
  for (std::uint64_t i = 0; i < 8; ++i) {
    sched.enqueue(mk_job(0, 1'000, 0, i));
    sched.enqueue(mk_job(1, 1'000, 0, 100 + i));
  }
  std::vector<std::uint32_t> order;
  Nanos ready = 0;
  for (int i = 0; i < 5; ++i) order.push_back(sched.next(0, &ready)->vm);
  EXPECT_EQ(std::count(order.begin(), order.end(), 0u), 4);
  EXPECT_EQ(std::count(order.begin(), order.end(), 1u), 1);
}

TEST(FairScheduler, DeadlineClassBeatsBestEffort) {
  FairSchedulerConfig cfg;
  cfg.tenant_of = [](std::uint32_t vm) { return vm; };
  cfg.weights = {1.0, 1.0};
  cfg.deadline_rel = {0, 50'000};  // tenant 1 runs EDF
  FairScheduler sched{cfg};
  sched.enqueue(mk_job(0, 64, 0, 0));   // best-effort, enqueued first
  sched.enqueue(mk_job(1, 64, 10, 1));  // deadline job, enqueued later
  Nanos ready = 0;
  EXPECT_EQ(sched.next(10, &ready)->vm, 1u);
  EXPECT_EQ(sched.next(10, &ready)->vm, 0u);
}

TEST(FairScheduler, PreemptionFiresExactlyOncePerJob) {
  int preempts = 0;
  FairSchedulerConfig cfg;
  cfg.tenant_of = [](std::uint32_t) { return 0u; };
  cfg.weights = {1.0};
  cfg.blocked_until = [](std::uint32_t, Nanos) {
    return Nanos{10'000};  // window refills at t=10us, whoever asks
  };
  cfg.on_preempt = [&preempts](std::uint32_t) { ++preempts; };
  FairScheduler sched{cfg};
  sched.enqueue(mk_job(0, 64, 0, 0));

  Nanos ready = 0;
  // First dequeue attempt: the job is preempted (deferred to the refill)
  // and counted — once.
  EXPECT_FALSE(sched.next(0, &ready).has_value());
  EXPECT_EQ(ready, 10'000);
  EXPECT_EQ(preempts, 1);
  // Still blocked before the refill, but no second preemption.
  EXPECT_FALSE(sched.next(5'000, &ready).has_value());
  EXPECT_EQ(preempts, 1);
  // At the refill instant the job runs even though blocked_until still
  // reports 10'000 (progress guarantee: preempt at most once).
  auto job = sched.next(10'000, &ready);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(preempts, 1);
  EXPECT_TRUE(sched.empty());
}

// ---------------------------------------------------------------------------
// JobService: the admission pipeline end to end.

JobServiceConfig quiet_cfg() {
  JobServiceConfig cfg;
  cfg.default_spec.window_ns = sim::kSecond;
  return cfg;
}

TEST(JobService, RejectsMalformedWithStructuredReason) {
  JobService svc{quiet_cfg()};
  Job j = good_job();
  j.kernel.clear();
  const AdmitResult r = svc.admit(j, 0);
  EXPECT_FALSE(r.admitted);
  EXPECT_EQ(r.rejection.reason, RejectReason::kMalformed);
  EXPECT_FALSE(r.rejection.detail.empty());
}

TEST(JobService, UnknownTenantWhenAutoRegisterOff) {
  JobServiceConfig cfg = quiet_cfg();
  cfg.auto_register = false;
  JobService svc{cfg};
  svc.register_tenant(TenantSpec{.name = "known"});
  Job j = good_job();
  j.tenant = "stranger";
  EXPECT_EQ(svc.admit(j, 0).rejection.reason, RejectReason::kUnknownTenant);
  j.tenant = "known";
  EXPECT_TRUE(svc.admit(j, 0).admitted);
}

TEST(JobService, QuotaExhaustionRefusesUntilTheWindowRolls) {
  JobServiceConfig cfg = quiet_cfg();
  JobService svc{cfg};
  svc.register_tenant(TenantSpec{.name = "acme", .bytes_per_window = 6'000,
                                 .window_ns = sim::kSecond});
  Job j = good_job();  // 4096 bytes
  EXPECT_TRUE(svc.admit(j, 0).admitted);
  const AdmitResult refused = svc.admit(j, 100);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.rejection.reason, RejectReason::kQuotaBytes);
  EXPECT_TRUE(svc.admit(j, sim::kSecond).admitted);
}

TEST(JobService, EnforceOffAdmitsEverythingValid) {
  JobServiceConfig cfg = quiet_cfg();
  cfg.enforce = false;
  cfg.default_spec.bytes_per_window = 1;  // would refuse everything if on
  JobService svc{cfg};
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(svc.admit(good_job(), 0).admitted);
}

TEST(JobService, AdmissionFaultSiteMapsToFaultInjected) {
  JobService svc{quiet_cfg()};
  sim::fault_injector().arm_nth(sim::FaultSite::kAdmissionReject, 1);
  const AdmitResult r = svc.admit(good_job(), 0);
  sim::fault_injector().disarm_all();
  EXPECT_FALSE(r.admitted);
  EXPECT_EQ(r.rejection.reason, RejectReason::kFaultInjected);
  // The injector only fires once; the next admit sails through.
  EXPECT_TRUE(svc.admit(good_job(), 0).admitted);
}

TEST(JobService, QuotaExhaustFaultSiteMapsToQuotaBytes) {
  JobService svc{quiet_cfg()};
  sim::fault_injector().arm_nth(sim::FaultSite::kQuotaExhaust, 1);
  const AdmitResult r = svc.admit(good_job(), 0);
  sim::fault_injector().disarm_all();
  EXPECT_FALSE(r.admitted);
  EXPECT_EQ(r.rejection.reason, RejectReason::kQuotaBytes);
}

TEST(JobService, ThrottleDelayWhileCardWindowExhausted) {
  JobServiceConfig cfg = quiet_cfg();
  cfg.throttle_ns = 75'000;
  JobService svc{cfg};
  // A window long enough that the global watermark can't roll it under us.
  svc.register_tenant(TenantSpec{.name = "acme",
                                 .card_ns_per_window = 1'000,
                                 .window_ns = 3'600 * sim::kSecond});
  const Nanos now = sim::watermark();
  EXPECT_EQ(svc.throttle_delay("acme", now), 0);
  svc.on_occupancy("acme", 5'000, now);  // overdraws the 1us budget
  EXPECT_EQ(svc.throttle_delay("acme", now), 75'000);
  EXPECT_EQ(svc.throttle_delay("ghost", now), 0);  // unknown: no throttle
}

TEST(JobService, PerTenantSumsEqualAggregatesExactly) {
  auto& reg = sim::metrics::registry();
  reg.reset();
  {
    JobServiceConfig cfg = quiet_cfg();
    JobService svc{cfg};
    svc.register_tenant(TenantSpec{.name = "a", .bytes_per_window = 10'000,
                                   .window_ns = sim::kSecond});
    svc.register_tenant(TenantSpec{.name = "b"});
    Job j = good_job();
    for (int i = 0; i < 6; ++i) {
      j.tenant.assign(1, (i % 2 != 0) ? 'a' : 'b');
      if (svc.admit(j, 0).admitted) svc.complete(j.tenant, 0);
    }
    Job bad = good_job();
    bad.tenant.clear();  // charged to the "<invalid>" tenant
    svc.admit(bad, 0);

    for (const char* name :
         {"vphi.tenant.admitted", "vphi.tenant.rejected",
          "vphi.tenant.completed"}) {
      const auto by_label = reg.counter_by_label(name);
      std::uint64_t sum = 0;
      for (const auto& [label, v] : by_label) sum += v;
      EXPECT_EQ(sum, reg.counter_value(name)) << name;
    }
    const auto rejected = reg.counter_by_label("vphi.tenant.rejected");
    EXPECT_EQ(rejected.at(std::string("tenant=") + JobService::kInvalidTenant),
              1u);
  }
  reg.reset();
}

// ---------------------------------------------------------------------------
// FleetTenantPolicy on the sharded engine.

sim::FleetConfig tenant_fleet() {
  sim::FleetConfig cfg;
  cfg.vms = 16;
  cfg.shards = 4;
  cfg.cards = 3;
  cfg.duration_ns = 400'000;
  cfg.traffic.rate_hz = 40'000.0;
  return cfg;
}

FleetTenantPolicyConfig two_tenants(bool enforce) {
  FleetTenantPolicyConfig pc;
  pc.tenants = {
      TenantSpec{.name = "steady", .weight = 4.0,
                 .window_ns = 200'000, .deadline_rel_ns = 300'000},
      TenantSpec{.name = "noisy", .weight = 1.0,
                 .max_inflight = 2, .bytes_per_window = 8'000,
                 .card_ns_per_window = 60'000, .window_ns = 200'000},
  };
  pc.assignment = {0, 1};  // even VMs steady, odd VMs noisy
  pc.enforce = enforce;
  pc.throttle_ns = 50'000;
  return pc;
}

TEST(FleetPolicy, SameSeedRunsAreBitIdenticalWithHooksInstalled) {
  auto& reg = sim::metrics::registry();
  sim::FleetConfig cfg = tenant_fleet();

  // Each policy lives in its own scope: reset() only clears *retired*
  // histogram samples, so the first run's instruments must be destroyed
  // before the second run records into same-named ones.
  sim::FleetResult r1, r2;
  std::string snap1, snap2;
  {
    reg.reset();
    FleetTenantPolicy policy{two_tenants(true), cfg};
    cfg.hooks = policy.hooks();
    r1 = sim::run_fleet(cfg);
    snap1 = reg.snapshot_json();
  }
  {
    reg.reset();
    FleetTenantPolicy policy{two_tenants(true), cfg};
    cfg.hooks = policy.hooks();
    r2 = sim::run_fleet(cfg);
    snap2 = reg.snapshot_json();
  }
  reg.reset();

  EXPECT_GT(r1.requests, 0u);
  EXPECT_GT(r1.throttled + r1.rejected, 0u);  // the quotas actually bite
  EXPECT_EQ(r1.requests, r2.requests);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.rejected, r2.rejected);
  EXPECT_EQ(r1.throttled, r2.throttled);
  EXPECT_EQ(r1.bytes, r2.bytes);
  EXPECT_EQ(r1.sim_end_ns, r2.sim_end_ns);
  EXPECT_EQ(r1.mean_ns, r2.mean_ns);
  EXPECT_EQ(snap1, snap2);
}

TEST(FleetPolicy, TenantSumsEqualAggregatesAndAccountingBalances) {
  auto& reg = sim::metrics::registry();
  reg.reset();
  {
    sim::FleetConfig cfg = tenant_fleet();
    FleetTenantPolicy policy{two_tenants(true), cfg};
    cfg.hooks = policy.hooks();
    const sim::FleetResult r = sim::run_fleet(cfg);

    for (const char* name :
         {"vphi.tenant.admitted", "vphi.tenant.rejected",
          "vphi.tenant.throttled", "vphi.tenant.preempted",
          "vphi.tenant.completed"}) {
      const auto by_label = reg.counter_by_label(name);
      std::uint64_t sum = 0;
      for (const auto& [label, v] : by_label) sum += v;
      EXPECT_EQ(sum, reg.counter_value(name)) << name;
    }
    // Every submitted request was admitted, and every admission completed
    // (the run drains to quiescence).
    EXPECT_EQ(reg.counter_value("vphi.tenant.admitted"), r.requests);
    EXPECT_EQ(reg.counter_value("vphi.tenant.completed"), r.completed);
    // Throttle decisions with no retry runway left are dropped by the
    // engine as rejections, so only the sum is conserved.
    EXPECT_EQ(reg.counter_value("vphi.tenant.throttled") +
                  reg.counter_value("vphi.tenant.rejected"),
              r.throttled + r.rejected);
    EXPECT_GE(reg.counter_value("vphi.tenant.throttled"), r.throttled);
    // The noisy tenant, not the steady one, absorbs the shaping.
    const auto throttled = reg.counter_by_label("vphi.tenant.throttled");
    EXPECT_GT(throttled.at("tenant=noisy"), 0u);

    std::uint64_t vm_sum = 0;
    for (const auto c : policy.completed_per_vm()) vm_sum += c;
    EXPECT_EQ(vm_sum, r.completed);
  }
  reg.reset();
}

TEST(FleetPolicy, EnforceOffAdmitsEverythingAndMatchesNoHooksSchedule) {
  auto& reg = sim::metrics::registry();
  sim::FleetConfig cfg = tenant_fleet();

  reg.reset();
  const sim::FleetResult base = sim::run_fleet(cfg);

  reg.reset();
  FleetTenantPolicy policy{two_tenants(false), cfg};
  cfg.hooks = policy.hooks();
  const sim::FleetResult off = sim::run_fleet(cfg);
  reg.reset();

  // enforce=false only observes: no refusals, no throttles, the engine's
  // native card queue — the whole simulated schedule (including latency
  // stats) matches the hook-free engine bit-exactly.
  EXPECT_EQ(off.rejected, 0u);
  EXPECT_EQ(off.throttled, 0u);
  EXPECT_EQ(off.requests, base.requests);
  EXPECT_EQ(off.completed, base.completed);
  EXPECT_EQ(off.bytes, base.bytes);
  EXPECT_EQ(off.sim_end_ns, base.sim_end_ns);
  EXPECT_EQ(off.mean_ns, base.mean_ns);
  EXPECT_EQ(off.p99_ns, base.p99_ns);
}

// ---------------------------------------------------------------------------
// Integration points: fabric listener, COI admission.

TEST(Occupancy, FabricListenerFeedsTheTenantCardWindow) {
  tools::TestbedConfig tb;
  tb.start_coi_daemon = false;
  tools::Testbed bed{tb};
  JobServiceConfig cfg;
  JobService svc{cfg};
  svc.register_tenant(TenantSpec{.name = "vm0",
                                 .card_ns_per_window = 1'000,
                                 .window_ns = 3'600 * sim::kSecond});
  bed.fabric().set_occupancy_listener(
      [&svc](const std::string& tenant, Nanos busy, Nanos now) {
        svc.on_occupancy(tenant, busy, now);
      });
  const Nanos now = bed.card().card_actor().now();
  bed.fabric().charge_card_occupancy("vm0", 2'500, now);
  EXPECT_EQ(svc.throttle_delay("vm0", now), svc.config().throttle_ns);
  bed.fabric().set_occupancy_listener(nullptr);
  bed.fabric().charge_card_occupancy("vm0", 1, now);  // no listener: no crash
}

TEST(JobService, OccupancyChargeLandsInTheWindowItIsStampedIn) {
  // The charge carries the caller's simulated time, so a host thread that
  // runs ahead cannot move it into another window. Stamped after the
  // current window's end, it lands in the next one.
  JobServiceConfig cfg = quiet_cfg();
  cfg.throttle_ns = 75'000;
  JobService svc{cfg};
  constexpr Nanos kWindow = 3'600 * sim::kSecond;
  svc.register_tenant(TenantSpec{
      .name = "acme", .card_ns_per_window = 1'000, .window_ns = kWindow});
  const Nanos later = 10 * kWindow + 5;
  svc.on_occupancy("acme", 5'000, later);
  EXPECT_EQ(svc.throttle_delay("acme", later), 75'000);
  EXPECT_EQ(svc.throttle_delay("acme", later + kWindow), 0)
      << "the window after it starts fresh";
}

class ServiceCoiFixture : public ::testing::Test {
 protected:
  ServiceCoiFixture() {
    workloads::register_dgemm_kernel();  // provides the "noop" kernel
    svc_cfg_.auto_register = false;
    svc_ = std::make_unique<JobService>(svc_cfg_);
    svc_->register_tenant(TenantSpec{.name = "tenant-a",
                                     .bytes_per_window = 1ull << 20,
                                     .window_ns = 3'600 * sim::kSecond});
    tools::TestbedConfig tb;
    tb.num_vms = 1;
    tb.job_service = svc_.get();
    bed_ = std::make_unique<tools::Testbed>(tb);
  }
  JobServiceConfig svc_cfg_;
  std::unique_ptr<JobService> svc_;
  std::unique_ptr<tools::Testbed> bed_;
};

TEST_F(ServiceCoiFixture, DaemonAdmitsWithinQuotaAndCarriesTenant) {
  coi::BinaryImage image;
  image.name = "app.out";
  image.bytes = 64 * 1024;
  image.entry_kernel = "noop";
  sim::Actor actor{"host-coi"};
  sim::ActorScope scope(actor);
  auto proc = coi::Process::create(
      bed_->host_provider(), bed_->card_node(), image, 4, {},
      coi::Process::CreateOptions{.tenant = "tenant-a"});
  ASSERT_TRUE(proc);
  EXPECT_GT(proc->pid(), 0u);
  auto res = proc->wait_for_shutdown();
  ASSERT_TRUE(res);
  EXPECT_EQ(res->exit_code, 0);
}

TEST_F(ServiceCoiFixture, DaemonRejectsOverQuotaWithStructuredError) {
  coi::BinaryImage image;
  image.name = "huge.out";
  image.bytes = 4ull << 20;  // over the 1 MiB tenant byte window
  image.entry_kernel = "noop";
  sim::Actor actor{"host-coi"};
  sim::ActorScope scope(actor);
  Rejection rej;
  auto proc = coi::Process::create(
      bed_->host_provider(), bed_->card_node(), image, 4, {},
      coi::Process::CreateOptions{.tenant = "tenant-a", .rejection = &rej});
  ASSERT_FALSE(proc);
  EXPECT_EQ(proc.status(), sim::Status::kAccessDenied);
  EXPECT_EQ(rej.reason, RejectReason::kQuotaBytes);
  EXPECT_FALSE(rej.detail.empty());
}

TEST_F(ServiceCoiFixture, DaemonRejectsUnknownTenant) {
  coi::BinaryImage image;
  image.name = "app.out";
  image.bytes = 4 * 1024;
  image.entry_kernel = "noop";
  sim::Actor actor{"host-coi"};
  sim::ActorScope scope(actor);
  Rejection rej;
  auto proc = coi::Process::create(
      bed_->host_provider(), bed_->card_node(), image, 4, {},
      coi::Process::CreateOptions{.tenant = "who-dis", .rejection = &rej});
  ASSERT_FALSE(proc);
  EXPECT_EQ(rej.reason, RejectReason::kUnknownTenant);
}

// ---------------------------------------------------------------------------
// SloMonitor: multi-window burn-rate alerting (src/service/slo_monitor.hpp)

// period 100 us, fast window 1 us, slow window 5 us (5 buckets), 1% error
// budget, both windows must burn >= 2x, and >= 4 events in the fast window.
SloSpec test_slo_spec() {
  SloSpec s;
  s.latency_slo_ns = 1'000;
  s.objective = 0.99;
  s.period_ns = 100'000;
  s.fast_window_frac = 0.01;
  s.slow_window_frac = 0.05;
  s.burn_threshold = 2.0;
  s.min_events = 4;
  return s;
}

/// vphi.slo.alerts as an operator reads it: the aggregate, or one
/// tenant's. Each SloMonitor case resets the registry first.
std::uint64_t alerts() {
  return sim::metrics::registry().counter_value("vphi.slo.alerts");
}
std::uint64_t alerts(const std::string& tenant) {
  return counter_at("vphi.slo.alerts", "tenant=" + tenant);
}

TEST(SloMonitorTest, BurnMathEdgeTriggeredFireAndClear) {
  sim::metrics::registry().reset();
  {
    SloMonitor mon{test_slo_spec(), {"acme"}, {0}};
    // Bucket 1: 8 events, 4 bad => bad fraction 0.5 against a 1% budget =
    // burn 50x. Both windows see the same single bucket.
    for (int i = 0; i < 4; ++i) mon.record_completion(0, 500, 7, 100);
    for (int i = 0; i < 4; ++i) mon.record_completion(0, 5'000, 7, 200);
    mon.evaluate(1'000);
    EXPECT_NEAR(mon.burn_fast(0), 50.0, 1e-9);  // (1 - 0.99) isn't exact
    EXPECT_NEAR(mon.burn_slow(0), 50.0, 1e-9);
    EXPECT_TRUE(mon.alerting(0));
    EXPECT_EQ(alerts(), 1u);

    // Still burning in bucket 2: edge-triggered, no second alert.
    for (int i = 0; i < 8; ++i) mon.record_completion(0, 5'000, 7, 1'500);
    mon.evaluate(2'000);
    EXPECT_TRUE(mon.alerting(0));
    EXPECT_EQ(alerts(), 1u);

    // Six buckets of good-only traffic: the fast window clears at once,
    // the bad burst eventually leaves the slow window too.
    for (int b = 0; b < 6; ++b) {
      for (int i = 0; i < 8; ++i) {
        mon.record_completion(0, 500, 7,
                              2'100 + static_cast<sim::Nanos>(b) * 1'000);
      }
      mon.evaluate(3'000 + static_cast<sim::Nanos>(b) * 1'000);
    }
    EXPECT_FALSE(mon.alerting(0));
    EXPECT_DOUBLE_EQ(mon.burn_slow(0), 0.0);
    EXPECT_EQ(alerts(), 1u);

    // A fresh burn is a fresh edge: fires again.
    for (int i = 0; i < 8; ++i) mon.record_completion(0, 5'000, 7, 8'500);
    mon.evaluate(9'000);
    EXPECT_TRUE(mon.alerting(0));
    EXPECT_EQ(alerts(), 2u);
  }
  sim::metrics::registry().reset();
}

TEST(SloMonitorTest, MinEventsGateSuppressesIdleTenantPages) {
  sim::metrics::registry().reset();
  {
    SloSpec spec = test_slo_spec();
    spec.min_events = 16;
    SloMonitor mon{spec, {"acme"}, {0}};
    for (int i = 0; i < 4; ++i) mon.record_completion(0, 50'000, 7, 500);
    mon.evaluate(1'000);
    // Burning far past the threshold...
    EXPECT_GT(mon.burn_fast(0), spec.burn_threshold);
    // ...but 4 events < min_events: a nearly idle tenant is not a page.
    EXPECT_FALSE(mon.alerting(0));
    EXPECT_EQ(alerts(), 0u);
  }
  sim::metrics::registry().reset();
}

TEST(SloMonitorTest, RejectsCountAsBadAndFireAlerts) {
  sim::metrics::registry().reset();
  {
    SloMonitor mon{test_slo_spec(), {"acme"}, {0}};
    for (int i = 0; i < 8; ++i) mon.record_reject(0, 500);
    mon.evaluate(1'000);
    EXPECT_TRUE(mon.alerting(0));
    EXPECT_EQ(alerts("acme"), 1u);
    const std::string snap = sim::metrics::registry().snapshot_json();
    EXPECT_NE(snap.find("\"vphi.slo.bad\":8"), std::string::npos);
    EXPECT_NE(snap.find("\"vphi.slo.alerts\":1"), std::string::npos);
  }
  sim::metrics::registry().reset();
}

TEST(SloMonitorTest, AlertsArePerTenantWithFocusedDump) {
  sim::metrics::registry().reset();
  {
    constexpr sim::TraceId kBadTrace = 99;
    // vm0 -> "steady" (healthy), vm1 -> "noisy" (every request blows the
    // latency SLO).
    SloMonitor mon{test_slo_spec(), {"steady", "noisy"}, {0, 1}};
    const auto dumps = [] {
      return sim::metrics::registry().counter_value("vphi.recorder.dumps");
    };
    const std::uint64_t dumps_before = dumps();
    for (int i = 0; i < 8; ++i) mon.record_completion(0, 500, 0, 400);
    for (int i = 0; i < 8; ++i) {
      mon.record_completion(1, 50'000, kBadTrace, 400);
    }
    mon.evaluate(1'000);
    EXPECT_FALSE(mon.alerting(0));
    EXPECT_TRUE(mon.alerting(1));
    EXPECT_EQ(alerts("steady"), 0u);
    EXPECT_EQ(alerts("noisy"), 1u);
    EXPECT_EQ(alerts(), 1u);
    // The page carries the evidence: one flight-recorder dump, naming the
    // offending tenant and focused on its most recent SLO-violating trace.
    EXPECT_EQ(dumps() - dumps_before, 1u);
    const sim::FlightDump dump = sim::flight_recorder().last_dump();
    EXPECT_NE(dump.reason.find("noisy"), std::string::npos);
    EXPECT_EQ(dump.focus, kBadTrace);
  }
  sim::metrics::registry().reset();
}

TEST(SloMonitorTest, LongIdleGapAdvancesAndTrimsWindows) {
  sim::metrics::registry().reset();
  {
    SloMonitor mon{test_slo_spec(), {"acme"}, {0}};
    for (int i = 0; i < 8; ++i) mon.record_completion(0, 50'000, 7, 500);
    mon.evaluate(1'000);
    EXPECT_TRUE(mon.alerting(0));
    // A long idle gap: evaluate() closes every intervening bucket in one
    // call, the bad burst ages out of the slow window, and the alert
    // clears without any new traffic.
    mon.evaluate(20'000);
    EXPECT_FALSE(mon.alerting(0));
    EXPECT_DOUBLE_EQ(mon.burn_fast(0), 0.0);
    EXPECT_DOUBLE_EQ(mon.burn_slow(0), 0.0);
    EXPECT_EQ(alerts(), 1u);
  }
  sim::metrics::registry().reset();
}

}  // namespace
}  // namespace vphi::service
