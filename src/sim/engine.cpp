#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "sim/actor.hpp"
#include "sim/metrics.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sim/timeseries.hpp"
#include "sim/trace.hpp"

namespace vphi::sim {
namespace {

// kRetry and kCardFree exist only when control-plane hooks are installed:
// kRetry re-runs admission for a throttled arrival (payload already drawn,
// carried in the event — no new RNG draw), kCardFree wakes a card's
// scheduler when it goes idle or a deferred job becomes runnable.
enum : std::uint8_t {
  kArrival = 0,
  kDoorbell = 1,
  kCompletion = 2,
  kRetry = 3,
  kCardFree = 4,
};

struct Ev {
  Nanos ts = 0;
  std::uint32_t src_shard = 0;
  std::uint64_t seq = 0;
  std::uint8_t kind = kArrival;
  std::uint32_t vm = 0;
  std::uint32_t card = 0;
  std::uint32_t bytes = 0;
  Nanos submit_ts = 0;  ///< arrival timestamp the latency is measured from
  TraceId trace = 0;
};

/// Min-heap order on the deterministic total key (ts, src_shard, seq):
/// wall-clock arrival order into a shard's queue never matters, only this
/// key does.
struct EvAfter {
  bool operator()(const Ev& a, const Ev& b) const noexcept {
    if (a.ts != b.ts) return a.ts > b.ts;
    if (a.src_shard != b.src_shard) return a.src_shard > b.src_shard;
    return a.seq > b.seq;
  }
};

/// Per-shard instruments — constructed on the *main* thread in shard order
/// before any engine thread starts, so registry registration order (and
/// with it snapshot fold order) is deterministic.
struct ShardMetrics {
  explicit ShardMetrics(const std::string& label)
      : events("vphi.sim.events", label),
        requests("vphi.sim.fleet.requests", label),
        bytes("vphi.sim.fleet.bytes", label),
        dropped("vphi.sim.traffic.dropped", label),
        disconnects("vphi.sim.traffic.disconnects", label),
        sent("vphi.sim.channel.sent", label),
        backpressure("vphi.sim.channel.backpressure", label),
        latency("vphi.sim.fleet.request_latency_ns", label),
        depth("vphi.sim.channel.depth", label) {}

  metrics::Counter events;
  metrics::Counter requests;
  metrics::Counter bytes;
  metrics::Counter dropped;
  metrics::Counter disconnects;
  metrics::Counter sent;
  metrics::Counter backpressure;
  metrics::LatencyHistogram latency;
  metrics::LatencyHistogram depth;
};

struct VmState {
  TrafficStream stream;
  Nanos offline_until = 0;
};

struct ShardOut {
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t throttled = 0;
  std::uint64_t epochs = 0;
  Nanos last_ts = 0;
};

// Modeled per-request costs: guest submit work, doorbell hop to the card,
// card-side service (base + per byte), completion hop back. Not yet derived
// from sim::CostModel.
constexpr Nanos kSubmitNs = 1'500;
constexpr Nanos kDoorbellNs = 20'000;
constexpr Nanos kCompletionNs = 20'000;
constexpr Nanos kServiceBaseNs = 5'000;
constexpr double kServicePerByteNs = 0.5;

// An event sent from epoch E must land in epoch >= E+1 on its target
// shard, which holds as long as the epoch is no longer than the cheapest
// cross-shard hop (doorbell send includes the submit cost).
constexpr Nanos kEpochNs = std::min(kSubmitNs + kDoorbellNs, kCompletionNs);

Nanos service_ns(std::uint32_t bytes) noexcept {
  return kServiceBaseNs +
         static_cast<Nanos>(kServicePerByteNs * static_cast<double>(bytes));
}

/// VPHI_ENGINE_PROFILE=1: per-shard wall-clock phase timers (event
/// processing / outbox drain / barrier wait). Off by default — the
/// published vphi.engine.* values are wall-clock and thus nondeterministic,
/// so enabling the profiler trades the bit-identical-snapshot property for
/// the phase breakdown.
bool engine_profile_enabled() {
  const char* v = std::getenv("VPHI_ENGINE_PROFILE");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock ns each shard thread spent per engine phase; written only by
/// the owning shard thread, read in the barrier completion step (the
/// arrival edge orders the reads) and after join.
struct alignas(64) ShardProfile {
  std::uint64_t events_ns = 0;   ///< priority-queue event handling
  std::uint64_t drain_ns = 0;    ///< inbound outbox drain
  std::uint64_t barrier_ns = 0;  ///< epoch barrier wait
};

constexpr std::size_t kNumProfilePhases = 3;

const char* const kProfilePhaseNames[kNumProfilePhases] = {
    "vphi.engine.events_ns",
    "vphi.engine.drain_ns",
    "vphi.engine.barrier_ns",
};

std::uint64_t profile_phase(const ShardProfile& p, std::size_t phase) {
  switch (phase) {
    case 0: return p.events_ns;
    case 1: return p.drain_ns;
    default: return p.barrier_ns;
  }
}

FleetConfig normalized(const FleetConfig& in) {
  FleetConfig cfg = in;
  if (cfg.vms == 0) cfg.vms = 1;
  if (cfg.cards == 0) cfg.cards = 1;
  if (cfg.duration_ns == 0) cfg.duration_ns = 1;
  if (cfg.channel_capacity == 0) cfg.channel_capacity = 2;
  cfg.shards =
      std::clamp<std::uint32_t>(cfg.shards, 1, std::min(kMaxShards, cfg.vms));
  return cfg;
}

void finalize_result(FleetResult& r, const std::vector<ShardOut>& outs,
                     const Histogram& lat, metrics::Gauge& imbalance_gauge) {
  r.per_shard_requests.clear();
  std::uint64_t min_c = ~std::uint64_t{0};
  std::uint64_t max_c = 0;
  std::uint64_t sum_c = 0;
  for (const ShardOut& o : outs) {
    r.requests += o.requests;
    r.completed += o.completed;
    r.rejected += o.rejected;
    r.throttled += o.throttled;
    r.sim_end_ns = std::max(r.sim_end_ns, o.last_ts);
    r.per_shard_requests.push_back(o.completed);
    min_c = std::min(min_c, o.completed);
    max_c = std::max(max_c, o.completed);
    sum_c += o.completed;
  }
  r.mean_ns = lat.mean();
  r.p50_ns = lat.percentile(0.5);
  r.p99_ns = lat.percentile(0.99);
  const double mean_c =
      static_cast<double>(sum_c) / static_cast<double>(outs.size());
  if (outs.size() > 1 && mean_c > 0.0) {
    r.imbalance = static_cast<double>(max_c - min_c) / mean_c;
  }
  imbalance_gauge.set(static_cast<std::int64_t>(r.imbalance * 1000.0));
}

}  // namespace

FleetResult run_fleet(const FleetConfig& requested) {
  const FleetConfig cfg = normalized(requested);
  const std::uint32_t S = cfg.shards;
  const Nanos duration = cfg.duration_ns;
  // Runaway guard only — a correct run quiesces via the outstanding count
  // long before this. Shared constant, so every shard breaks together.
  // Tenant profiles can inflate payloads and the control plane can defer
  // work (throttle retries, scheduler deferrals), so both widen the bound.
  const auto worst_bytes = static_cast<std::uint32_t>(std::min(
      4e9, static_cast<double>(cfg.traffic.bytes_max) *
               cfg.traffic.max_bytes_mult()));
  const Nanos worst_round = kSubmitNs + kDoorbellNs +
                            service_ns(worst_bytes) +
                            kCompletionNs + cfg.traffic.churn_down_ns +
                            cfg.traffic.storm_len_ns + cfg.traffic.think_ns +
                            cfg.hooks.max_defer_ns;
  const std::uint64_t max_epochs =
      duration / kEpochNs + (64 * worst_round) / kEpochNs + 1024;

  // Instruments first, main thread, fixed order (see ShardMetrics).
  std::vector<std::unique_ptr<ShardMetrics>> sm;
  sm.reserve(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    sm.push_back(std::make_unique<ShardMetrics>("shard=s" + std::to_string(s)));
  }
  metrics::Counter epochs_total("vphi.sim.epochs");
  metrics::Gauge imbalance_gauge("vphi.sim.shard.imbalance");

  // Control-plane card schedulers: built on the main thread in card order
  // (deterministic registration order for any instruments a discipline
  // owns). Card c is only ever touched from shard c % S, so no locking.
  const bool queued = static_cast<bool>(cfg.hooks.make_card_scheduler);
  std::vector<std::unique_ptr<CardScheduler>> scheds;
  if (queued) {
    scheds.reserve(cfg.cards);
    for (std::uint32_t c = 0; c < cfg.cards; ++c) {
      scheds.push_back(cfg.hooks.make_card_scheduler(c));
    }
  }

  // Timeline sampler: catalogue built now — after every instrument of this
  // run (shard metrics, scheduler/tenant instruments) exists — and before
  // any shard thread spawns. All later Timeline calls happen inside the
  // barrier completion step or after join, so the sampler needs no locks.
  Timeline* tl = cfg.timeline != nullptr && cfg.timeline->enabled()
                     ? cfg.timeline
                     : nullptr;
  if (tl != nullptr) tl->begin_run(S, 0);

  // Engine self-profiling (wall clock, VPHI_ENGINE_PROFILE-gated).
  const bool profile = engine_profile_enabled();
  std::vector<ShardProfile> prof(S);
  std::vector<ShardProfile> prof_prev(S);
  std::vector<std::array<std::uint32_t, kNumProfilePhases>> prof_series;
  if (tl != nullptr && profile) {
    for (std::uint32_t s = 0; s < S; ++s) {
      std::array<std::uint32_t, kNumProfilePhases> idx{};
      for (std::size_t p = 0; p < kNumProfilePhases; ++p) {
        idx[p] = tl->add_series(std::string(kProfilePhaseNames[p]) +
                                "{shard=s" + std::to_string(s) + "}");
      }
      prof_series.push_back(idx);
    }
  }

  // S x S cross-shard outboxes (row = src shard), two per pair picked by
  // epoch parity: in epoch e a shard appends to outbox[e & 1]; at the top
  // of epoch e + 1 the receiver moves that one into its queue and clears
  // it. The barrier between the two epochs orders the appends before the
  // read, and the clear before the sender's next append to it in e + 2.
  std::vector<std::array<std::vector<Ev>, 2>> outbox(
      static_cast<std::size_t>(S) * S);

  std::atomic<std::int64_t> outstanding{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> phase{0};
  // The stop decision is published by the barrier's completion step, which
  // runs exactly once per epoch while every shard is parked — the only
  // point where `outstanding` is quiescent and a single verdict can bind
  // all shards. (A per-shard read after the barrier would race with shards
  // already mutating `outstanding` inside the next epoch.)
  auto on_epoch_end = [&]() noexcept {
    const std::uint64_t e = phase.fetch_add(1, std::memory_order_relaxed);
    const Nanos t1 = static_cast<Nanos>(e + 1) * kEpochNs;
    // Control-plane epoch hook first (SLO window evaluation publishes
    // burn-rate gauges), then the timeline sample so those gauges land in
    // the same sample, then the profiler's custom series, which sit after
    // the catalogue, so the point stream stays ordered by (ts, series).
    // All run single-threaded while every shard thread is parked in the
    // barrier — the only point where cross-shard instruments are
    // quiescent — and all are pure observers: no actor clock moves here.
    if (cfg.hooks.on_epoch) cfg.hooks.on_epoch(t1);
    if (tl != nullptr) tl->sample(t1);
    if (tl != nullptr && profile) {
      for (std::uint32_t s2 = 0; s2 < S; ++s2) {
        const ShardProfile cur = prof[s2];  // shard s2 arrived: writes
                                            // ordered before this read
        for (std::size_t p = 0; p < kNumProfilePhases; ++p) {
          const std::uint64_t d =
              profile_phase(cur, p) - profile_phase(prof_prev[s2], p);
          if (d != 0) {
            tl->record(prof_series[s2][p], t1, static_cast<double>(d));
          }
        }
        prof_prev[s2] = cur;
      }
    }
    stop.store((t1 >= duration &&
                outstanding.load(std::memory_order_relaxed) == 0) ||
                   e + 1 >= max_epochs,
               std::memory_order_relaxed);
  };
  std::barrier<decltype(on_epoch_end)> bar(static_cast<std::ptrdiff_t>(S),
                                           on_epoch_end);
  std::vector<ShardOut> outs(S);

  // One shard's whole run. The calling thread runs shard 0 and S - 1
  // spawned threads run the rest; the scopes below save and restore the
  // caller's thread-locals (bound shard, bound actor, current op span).
  auto run_shard = [&](std::uint32_t s) {
    ShardScope shard_scope(s, kEpochNs);
    Actor actor("fleet-shard-" + std::to_string(s), Actor::AtNow{});
    ActorScope actor_scope(actor);
    TraceOpDetach no_op_parent;
    ShardMetrics& m = *sm[s];
    ShardOut& out = outs[s];

    // This shard's VMs are v with v % S == s (local index v / S); its
    // cards are c with c % S == s (indexed globally, only ours used).
    // Every stream points at the one cfg.traffic.
    std::vector<VmState> vms;
    vms.reserve((cfg.vms - s + S - 1) / S);
    for (std::uint32_t v = s; v < cfg.vms; v += S) {
      vms.push_back(VmState{TrafficStream(cfg.seed, v, cfg.traffic), 0});
    }
    std::vector<Nanos> card_free(cfg.cards, 0);

    std::priority_queue<Ev, std::vector<Ev>, EvAfter> pq;
    std::uint64_t seq = 0;
    // Per-lane sends this epoch. Outboxes never fill, so backpressure is
    // modeled: it counts events beyond channel_capacity sent down one lane
    // within one epoch.
    std::vector<std::uint64_t> lane_pushed(S, 0);
    std::size_t parity = 0;  // e & 1 of the running epoch

    auto send = [&](std::uint32_t dst, Ev ev) {
      ev.src_shard = s;
      ev.seq = seq++;
      if (dst == s) {
        pq.push(ev);
        return;
      }
      m.sent.inc();
      if (++lane_pushed[dst] > cfg.channel_capacity) m.backpressure.inc();
      outbox[s * S + dst][parity].push_back(ev);
    };

    auto schedule_arrival = [&](std::uint32_t vm, Nanos ts) {
      if (ts >= duration) return;
      Ev ev;
      ev.kind = kArrival;
      ev.vm = vm;
      ev.ts = ts;
      send(s, ev);
    };

    // Submit one admitted request: identical to the pre-control-plane
    // inline path when origin == now (the no-hooks schedule must stay
    // bit-identical — the abl8 baselines pin it). A throttled retry
    // passes its original arrival time as `origin`, so the recorded
    // latency includes the throttle wait.
    auto submit_job = [&](std::uint32_t vmi, std::uint32_t bytes,
                          Nanos origin, Nanos now) {
      const Nanos submit_ts = now + kSubmitNs;
      TraceId id = 0;
      if (cfg.trace_requests) {
        id = tracer().begin_request("fleet", now);
        tracer().record(id, SpanEvent::kKick, submit_ts);
      }
      outstanding.fetch_add(1, std::memory_order_relaxed);
      m.requests.inc();
      m.bytes.inc(bytes);
      ++out.requests;
      Ev db;
      db.kind = kDoorbell;
      db.vm = vmi;
      db.card = vmi % cfg.cards;
      db.bytes = bytes;
      db.ts = submit_ts + kDoorbellNs;
      db.submit_ts = origin;
      db.trace = id;
      send(db.card % S, db);
    };

    // Run admission for a drawn request. Returns true when the VM's loop
    // is carried forward by the submission or a scheduled retry; false
    // means the request was rejected and (closed loop) the caller must
    // think-reschedule to keep the VM alive.
    auto admit_or_queue = [&](std::uint32_t vmi, std::uint32_t bytes,
                              Nanos origin, Nanos now) -> bool {
      AdmitDecision dec;
      if (cfg.hooks.admit) dec = cfg.hooks.admit(vmi, bytes, now);
      switch (dec.action) {
        case AdmitAction::kAdmit:
          submit_job(vmi, bytes, origin, now);
          return true;
        case AdmitAction::kThrottle: {
          const Nanos defer = dec.defer_ns > 0 ? dec.defer_ns : 1;
          Ev rt;
          rt.kind = kRetry;
          rt.vm = vmi;
          rt.bytes = bytes;
          rt.ts = now + defer;
          rt.submit_ts = origin;
          if (rt.ts >= duration) {
            // No runway left to retry in — drop like a reject.
            ++out.rejected;
            return false;
          }
          ++out.throttled;
          send(s, rt);
          return true;
        }
        case AdmitAction::kReject:
        default:
          ++out.rejected;
          return false;
      }
    };

    // Serve the card's queue head if the card is idle and a job is
    // runnable; otherwise arrange the kCardFree wakeup that will. Safe
    // to call redundantly — a stale wakeup finds the card busy or the
    // queue empty and does nothing.
    auto dispatch_card = [&](std::uint32_t card, Nanos now) {
      Nanos& free_at = card_free[card];
      if (free_at > now) return;  // the kCardFree at free_at re-enters
      Nanos ready = 0;
      auto job = scheds[card]->next(now, &ready);
      if (!job) {
        if (ready > now) {
          Ev p;
          p.kind = kCardFree;
          p.card = card;
          p.ts = ready;
          send(s, p);
        }
        return;
      }
      if (job->trace != 0) {
        tracer().record(job->trace, SpanEvent::kBackendPop, now);
      }
      const Nanos finish = now + job->service_ns;
      free_at = finish;
      actor.sync_to(finish);
      if (job->trace != 0) {
        tracer().record(job->trace, SpanEvent::kUsedPublish, finish);
      }
      Ev cp;
      cp.kind = kCompletion;
      cp.vm = job->vm;
      cp.bytes = job->bytes;
      cp.ts = finish + kCompletionNs;
      cp.submit_ts = job->submit_ts;
      cp.trace = job->trace;
      send(cp.vm % S, cp);
      Ev fr;
      fr.kind = kCardFree;
      fr.card = card;
      fr.ts = finish;
      send(s, fr);
    };

    // Seed every VM's first arrival.
    for (std::uint32_t v = s, li = 0; v < cfg.vms; v += S, ++li) {
      schedule_arrival(v, vms[li].stream.next_gap(0));
    }

    auto handle = [&](const Ev& ev) {
      m.events.inc();
      actor.sync_to(ev.ts);
      out.last_ts = std::max(out.last_ts, ev.ts);
      switch (ev.kind) {
        case kArrival: {
          VmState& vm = vms[ev.vm / S];
          bool submitted = false;
          if (!vm.stream.in_storm(ev.ts) && ev.ts >= vm.offline_until) {
            const Nanos down = vm.stream.maybe_disconnect();
            if (down > 0) {
              vm.offline_until = ev.ts + down;
              m.disconnects.inc();
              m.dropped.inc();
            } else {
              const std::uint32_t bytes = vm.stream.next_bytes();
              submitted = admit_or_queue(ev.vm, bytes, ev.ts, ev.ts);
            }
          } else {
            m.dropped.inc();
          }
          if (cfg.traffic.open_loop) {
            schedule_arrival(ev.vm, ev.ts + vm.stream.next_gap(ev.ts));
          } else if (!submitted) {
            // Closed loop: a dropped arrival reschedules itself, or the
            // VM's loop would die with the disconnect.
            schedule_arrival(ev.vm, std::max(ev.ts, vm.offline_until) +
                                        vm.stream.next_think());
          }
          break;
        }
        case kDoorbell: {
          if (queued) {
            CardJob job;
            job.vm = ev.vm;
            job.bytes = ev.bytes;
            job.enqueue_ns = ev.ts;
            job.ready_ns = ev.ts;
            job.submit_ts = ev.submit_ts;
            job.service_ns = service_ns(ev.bytes);
            job.seq = ev.seq;
            job.trace = ev.trace;
            scheds[ev.card]->enqueue(job);
            dispatch_card(ev.card, ev.ts);
            break;
          }
          if (ev.trace != 0) {
            tracer().record(ev.trace, SpanEvent::kBackendPop, ev.ts);
          }
          Nanos& free_at = card_free[ev.card];
          const Nanos start = std::max(ev.ts, free_at);
          const Nanos finish = start + service_ns(ev.bytes);
          free_at = finish;
          actor.sync_to(finish);
          if (ev.trace != 0) {
            tracer().record(ev.trace, SpanEvent::kUsedPublish, finish);
          }
          Ev cp;
          cp.kind = kCompletion;
          cp.vm = ev.vm;
          cp.bytes = ev.bytes;
          cp.ts = finish + kCompletionNs;
          cp.submit_ts = ev.submit_ts;
          cp.trace = ev.trace;
          send(cp.vm % S, cp);
          break;
        }
        case kCompletion: {
          if (ev.trace != 0) {
            tracer().record(ev.trace, SpanEvent::kComplete, ev.ts);
          }
          m.latency.record(ev.ts - ev.submit_ts);
          ++out.completed;
          outstanding.fetch_sub(1, std::memory_order_relaxed);
          if (cfg.hooks.on_complete) {
            cfg.hooks.on_complete(ev.vm, ev.bytes, service_ns(ev.bytes),
                                  ev.ts - ev.submit_ts, ev.ts, ev.trace);
          }
          if (!cfg.traffic.open_loop) {
            VmState& vm = vms[ev.vm / S];
            schedule_arrival(ev.vm, ev.ts + vm.stream.next_think());
          }
          break;
        }
        case kRetry: {
          // Re-run admission with the already-drawn payload. Storm and
          // churn checks do not re-run: the request was already born.
          const bool carried =
              admit_or_queue(ev.vm, ev.bytes, ev.submit_ts, ev.ts);
          if (!carried && !cfg.traffic.open_loop) {
            VmState& vm = vms[ev.vm / S];
            schedule_arrival(ev.vm, ev.ts + vm.stream.next_think());
          }
          break;
        }
        case kCardFree:
          dispatch_card(ev.card, ev.ts);
          break;
        default:
          break;
      }
    };

    // Phase timers (VPHI_ENGINE_PROFILE): steady_now_ns() only when the
    // profiler is armed, so the default path pays a branch per phase.
    ShardProfile& sp = prof[s];
    std::uint64_t w0 = 0;
    auto phase_mark = [&](std::uint64_t ShardProfile::* field) {
      if (!profile) return;
      const std::uint64_t w1 = steady_now_ns();
      sp.*field += w1 - w0;
      w0 = w1;
    };

    for (std::uint64_t e = 0;; ++e) {
      const Nanos t1 = static_cast<Nanos>(e + 1) * kEpochNs;
      std::fill(lane_pushed.begin(), lane_pushed.end(), 0);
      parity = e & 1;
      if (profile) w0 = steady_now_ns();
      // Drain what every source sent in epoch e - 1, fixed src order; the
      // queue key restores the deterministic total order.
      for (std::uint32_t src = 0; src < S; ++src) {
        std::vector<Ev>& in = outbox[src * S + s][parity ^ 1];
        for (const Ev& ev : in) pq.push(ev);
        in.clear();
      }
      phase_mark(&ShardProfile::drain_ns);
      // Execute this epoch. Events for later epochs may already sit in the
      // queue; the ts bound leaves them alone.
      std::uint64_t remote = 0;
      while (!pq.empty() && pq.top().ts < t1) {
        const Ev ev = pq.top();
        pq.pop();
        if (ev.src_shard != s) ++remote;
        handle(ev);
      }
      // Deterministic channel-backlog signal: cross-shard events this
      // epoch consumed (zero epochs stay silent).
      if (remote != 0) m.depth.record(remote);
      actor.sync_to(t1);
      out.epochs = e + 1;
      phase_mark(&ShardProfile::events_ns);
      bar.arrive_and_wait();
      phase_mark(&ShardProfile::barrier_ns);
      if (stop.load(std::memory_order_relaxed)) break;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(S - 1);
  for (std::uint32_t s = 1; s < S; ++s) threads.emplace_back(run_shard, s);
  run_shard(0);
  for (std::thread& t : threads) t.join();

  // Unbound threads (and later AtNow actors) should see the exact fleet
  // end time, not just the last epoch floor.
  detail::publish_shard_watermarks();

  FleetResult r;
  r.epochs = outs[0].epochs;
  epochs_total.inc(r.epochs);
  Histogram lat;
  for (std::uint32_t s = 0; s < S; ++s) {
    lat.merge(sm[s]->latency.snapshot());
    r.channel_sent += sm[s]->sent.value();
    r.backpressure += sm[s]->backpressure.value();
    r.dropped += sm[s]->dropped.value();
    r.bytes += sm[s]->bytes.value();
  }
  finalize_result(r, outs, lat, imbalance_gauge);
  if (tl != nullptr) tl->finish_run(r.sim_end_ns);
  if (profile) {
    // Scope-local labeled gauges: each retires at once and leaves its
    // level in its registry cell, so the phase breakdown shows up in
    // snapshot_json without keeping nondeterministic wall-clock
    // instruments alive past the run.
    for (std::uint32_t s = 0; s < S; ++s) {
      const std::string label = "shard=s" + std::to_string(s);
      for (std::size_t p = 0; p < kNumProfilePhases; ++p) {
        metrics::Gauge g(kProfilePhaseNames[p], label);
        g.set(static_cast<std::int64_t>(profile_phase(prof[s], p)));
      }
    }
  }
  return r;
}

}  // namespace vphi::sim
