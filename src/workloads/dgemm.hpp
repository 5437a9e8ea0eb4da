// dgemm — the paper's application benchmark (cblas_dgemm from the Intel
// samples, linked against MKL, launched natively with micnativeloadex).
//
// Two halves:
//  * a real blocked, multithreaded double-precision GEMM (verified against
//    a naive reference) that actually executes on card memory, and
//  * the on-card execution-time model: 56 usable KNC cores, 8-wide DP FMA
//    at 1.1 GHz, issue efficiency by threads/core, and a size-dependent
//    kernel efficiency ramp — this is what makes Figs. 6-8 come out with
//    the paper's shape.
//
// For n above kMaxRealCompute the kernel fills and touches the matrices but
// samples the arithmetic instead of computing all 2n^3 flops (a laptop
// can't run MKL-scale GEMMs); correctness is established at small n, timing
// always comes from the model. Documented in DESIGN.md as a substitution.
#pragma once

#include <cstddef>
#include <cstdint>

#include "coi/binary.hpp"
#include "mic/uos.hpp"
#include "sim/cost_model.hpp"
#include "sim/time.hpp"

namespace vphi::workloads {

/// Largest n the COI kernel fully computes (and verifies) for real.
inline constexpr std::size_t kMaxRealCompute = 384;

/// C = A * B, naive triple loop (reference).
void dgemm_naive(const double* a, const double* b, double* c, std::size_t n);

/// C = A * B, cache-blocked and parallelized over up to `threads` real
/// threads (capped at hardware concurrency), each taking whole 64-row
/// blocks; the caller's thread computes the first slice.
void dgemm_blocked(const double* a, const double* b, double* c, std::size_t n,
                   std::uint32_t threads);

/// Flop count of an n x n dgemm.
constexpr double dgemm_flops(std::size_t n) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(n);
}

/// MKL-like kernel efficiency vs. matrix size: small GEMMs can't keep the
/// 512-bit pipes fed; large ones approach ~92% of issue-limited peak.
double kernel_efficiency(std::size_t n);

/// Modeled execution time of an n x n dgemm on the card with `nthreads`
/// software threads (compute phase + one streaming pass of the matrices
/// through GDDR for the initialization the sample performs).
sim::Nanos mic_dgemm_time(const mic::uos::Scheduler& sched, std::size_t n,
                          std::uint32_t nthreads);

/// The MIC binary image of the dgemm sample: a small executable plus the
/// MKL/OpenMP dependencies micnativeloadex must stream to the card.
coi::BinaryImage make_dgemm_image(const sim::CostModel& model);

/// Name under which the dgemm kernel is registered (the image's entry).
inline constexpr const char* kDgemmKernelName = "cblas_dgemm_main";

/// Idempotently register the dgemm kernel (and the tiny "noop" RPC kernel)
/// with the COI KernelRegistry.
void register_dgemm_kernel();

}  // namespace vphi::workloads
