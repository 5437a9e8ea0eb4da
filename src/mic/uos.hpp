// The card's micro operating system (uOS).
//
// A real KNC card boots a trimmed Linux whose scheduler multiplexes software
// threads onto 57 cores x 4 hardware threads; one core is reserved for the
// uOS itself (which is why the paper's dgemm sweeps use 56/112/224 threads).
// We model:
//  * placement: software threads are spread round-robin over the usable
//    cores, so n threads leave some cores running ceil(n/56) and the rest
//    floor(n/56) threads;
//  * issue efficiency: KNC's in-order pipeline cannot issue from the same
//    hw thread on back-to-back cycles, so per-core throughput depends on
//    resident threads (CostModel::mic_issue_eff);
//  * oversubscription: beyond 4 threads/core the uOS round-robin timeslices,
//    paying a context-switch tax per slice;
//  * thread spawn and exec/loader costs for process launch.
#pragma once

#include <cstdint>

#include "sim/cost_model.hpp"
#include "sim/time.hpp"

namespace vphi::mic::uos {

class Scheduler {
 public:
  explicit Scheduler(const sim::CostModel& model) : model_(&model) {}

  std::uint32_t usable_cores() const {
    return model_->mic_cores - model_->mic_reserved_cores;
  }

  /// Per-core double-precision flops/s with `resident` software threads on
  /// the core (resident >= 1). Beyond 4 threads the issue rate saturates at
  /// the 4-thread efficiency and a timeslicing tax applies.
  double core_flops_rate(std::uint32_t resident) const;

  /// Aggregate flops/s over the whole card when running `nthreads` software
  /// threads placed round-robin.
  double aggregate_flops_rate(std::uint32_t nthreads) const;

  /// Makespan of a perfectly balanced compute phase of `total_flops` split
  /// evenly over `nthreads` threads. Governed by the slowest thread (the one
  /// sharing the most crowded core), matching an OpenMP static schedule.
  sim::Nanos compute_makespan(double total_flops, std::uint32_t nthreads) const;

  /// Makespan of a memory-bound phase touching `bytes` (streamed once).
  sim::Nanos memory_makespan(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, model_->mic_mem_bandwidth_Bps);
  }

  /// Cost of spawning `nthreads` threads (sequential pthread_create by the
  /// launcher thread, as the MKL/OpenMP runtime does on first use).
  sim::Nanos spawn_cost(std::uint32_t nthreads) const {
    return static_cast<sim::Nanos>(nthreads) * model_->uos_spawn_thread_ns;
  }

  /// Cost of exec()ing a freshly uploaded binary (loader, relocations).
  sim::Nanos exec_cost() const { return model_->uos_exec_setup_ns; }

  const sim::CostModel& model() const { return *model_; }

 private:
  const sim::CostModel* model_;
};

}  // namespace vphi::mic::uos
