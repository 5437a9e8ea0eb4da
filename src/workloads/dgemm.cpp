#include "workloads/dgemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "sim/fan_out.hpp"

namespace vphi::workloads {

void dgemm_naive(const double* a, const double* b, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += a[i * n + k] * b[k * n + j];
      c[i * n + j] = acc;
    }
  }
}

namespace {

constexpr std::size_t kBlock = 64;

/// One thread's share: rows [row_begin, row_end).
void dgemm_rows(const double* a, const double* b, double* c, std::size_t n,
                std::size_t row_begin, std::size_t row_end) {
  for (std::size_t i0 = row_begin; i0 < row_end; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, row_end);
    for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
      const std::size_t k1 = std::min(k0 + kBlock, n);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
        const std::size_t j1 = std::min(j0 + kBlock, n);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t k = k0; k < k1; ++k) {
            const double aik = a[i * n + k];
            for (std::size_t j = j0; j < j1; ++j) {
              c[i * n + j] += aik * b[k * n + j];
            }
          }
        }
      }
    }
  }
}

}  // namespace

void dgemm_blocked(const double* a, const double* b, double* c, std::size_t n,
                   std::uint32_t threads) {
  std::fill(c, c + n * n, 0.0);
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  // Whole row blocks per thread; fewer than two blocks run on the caller.
  sim::fan_out(0, n, kBlock, std::min(threads, hw), kBlock,
               [=](std::size_t begin, std::size_t end) {
                 dgemm_rows(a, b, c, n, begin, end);
               });
}

double kernel_efficiency(std::size_t n) {
  // Ramp toward ~92% of issue-limited peak; ~50% around n = 200.
  const double x = static_cast<double>(n);
  return 0.92 * x / (x + 208.0);
}

sim::Nanos mic_dgemm_time(const mic::uos::Scheduler& sched, std::size_t n,
                          std::uint32_t nthreads) {
  const sim::Nanos compute = sched.compute_makespan(
      dgemm_flops(n) / kernel_efficiency(n), nthreads);
  // The Intel sample initializes A and B and writes C: one streaming pass
  // over the three matrices through GDDR.
  const std::uint64_t bytes = 3ull * n * n * sizeof(double);
  return compute + sched.memory_makespan(bytes) + sched.spawn_cost(nthreads);
}

coi::BinaryImage make_dgemm_image(const sim::CostModel& model) {
  coi::BinaryImage image;
  image.name = "dgemm.mic";
  image.bytes = model.loadex_binary_bytes;
  image.libraries = {
      {"libmkl_intel_lp64.so", model.loadex_library_bytes / 2},
      {"libmkl_core.so", model.loadex_library_bytes / 4},
      {"libmkl_intel_thread.so", model.loadex_library_bytes / 8},
      {"libiomp5.so", model.loadex_library_bytes / 8},
  };
  image.entry_kernel = kDgemmKernelName;
  return image;
}

namespace {

/// Deterministic matrix entries (what the Intel sample's init loop does).
double a_entry(std::size_t i, std::size_t j, std::size_t n) {
  return static_cast<double>((i * n + j) % 7) * 0.5 + 1.0;
}
double b_entry(std::size_t i, std::size_t j) {
  return static_cast<double>((i + 2 * j) % 5) * 0.25 - 0.5;
}

int dgemm_kernel(coi::KernelContext& ctx) {
  if (ctx.args.empty()) {
    ctx.output = "usage: dgemm <n>";
    return 2;
  }
  const std::size_t n = static_cast<std::size_t>(
      std::strtoull(ctx.args[0].c_str(), nullptr, 10));
  if (n == 0) {
    ctx.output = "dgemm: bad matrix size";
    return 2;
  }

  // Capacity check against the card's advertised GDDR (a 3120P has 6 GB):
  // three n x n double matrices must fit or malloc on the card fails.
  const std::uint64_t full_bytes = 3ull * n * n * sizeof(double);
  if (full_bytes > ctx.card->model().mic_memory_bytes) {
    ctx.output = "dgemm: out of device memory";
    return 12;  // ENOMEM-ish exit
  }

  // Backing allocation: full matrices when we compute for real, a
  // representative slice for model-scale runs (the simulator's backing is
  // smaller than 6 GB; the slice is all the sampled arithmetic touches).
  auto& mem = ctx.card->memory();
  const std::size_t backed_rows =
      n <= kMaxRealCompute ? n : std::min<std::size_t>(n, 64);
  const std::uint64_t bytes = backed_rows * n * sizeof(double);
  auto a_off = mem.allocate(bytes);
  auto b_off = mem.allocate(bytes);
  auto c_off = mem.allocate(bytes);
  if (!a_off || !b_off || !c_off) {
    if (a_off) mem.free(*a_off);
    if (b_off) mem.free(*b_off);
    ctx.output = "dgemm: out of device memory";
    return 12;
  }
  auto* a = static_cast<double*>(mem.at(*a_off));
  auto* b = static_cast<double*>(mem.at(*b_off));
  auto* c = static_cast<double*>(mem.at(*c_off));

  double checksum = 0.0;
  bool verified = true;
  if (n <= kMaxRealCompute) {
    // Full real computation + spot verification against the reference.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a[i * n + j] = a_entry(i, j, n);
        b[i * n + j] = b_entry(i, j);
      }
    }
    dgemm_blocked(a, b, c, n, ctx.nthreads);
    for (std::size_t i = 0; i < n * n; ++i) checksum += c[i];
    // Spot-check a handful of entries against the naive definition.
    for (std::size_t probe = 0; probe < 8; ++probe) {
      const std::size_t i = (probe * 37) % n;
      const std::size_t j = (probe * 53) % n;
      double expect = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        expect += a[i * n + k] * b[k * n + j];
      }
      if (std::abs(expect - c[i * n + j]) > 1e-6 * std::abs(expect) + 1e-9) {
        verified = false;
      }
    }
  } else {
    // Model-scale run: initialize a representative slice and sample the
    // arithmetic; the full time comes from the execution model below.
    const std::size_t rows = std::min<std::size_t>(n, 64);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a[i * n + j] = a_entry(i, j, n);
        b[i * n + j] = b_entry(i, j);
      }
    }
    for (std::size_t i = 0; i < rows; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < rows; ++k) {
        acc += a[i * n + k] * b[k * n + i % rows];
      }
      c[i] = acc;
      checksum += acc;
    }
  }

  // Charge the modeled on-card execution time (spawn cost is charged by
  // the daemon already; mic_dgemm_time includes it for standalone use, so
  // subtract it here).
  const sim::Nanos modeled =
      mic_dgemm_time(ctx.card->scheduler(), n, ctx.nthreads) -
      ctx.card->scheduler().spawn_cost(ctx.nthreads);
  ctx.actor->advance(modeled);

  mem.free(*a_off);
  mem.free(*b_off);
  mem.free(*c_off);

  char line[160];
  std::snprintf(line, sizeof(line),
                "dgemm n=%zu threads=%u checksum=%.6e %s", n, ctx.nthreads,
                checksum, verified ? "PASSED" : "FAILED");
  ctx.output = line;
  return verified ? 0 : 1;
}

int noop_kernel(coi::KernelContext& ctx) {
  ctx.output = "ok";
  return 0;
}

std::once_flag g_register_once;

}  // namespace

void register_dgemm_kernel() {
  std::call_once(g_register_once, [] {
    coi::KernelRegistry::instance().register_kernel(kDgemmKernelName,
                                                    dgemm_kernel);
    coi::KernelRegistry::instance().register_kernel("noop", noop_kernel);
  });
}

}  // namespace vphi::workloads
