// MIC binary images and the kernel registry.
//
// A real micnativeloadex ships an x86 ELF (plus MKL/OpenMP shared objects)
// to the card and execs it under the uOS. We cannot execute k1om ELF on the
// simulator, so a BinaryImage carries (a) the *sizes* of the executable and
// its dependent libraries — these drive the PCIe streaming time, the
// dominant launch cost in Figs. 6-8 — and (b) the name of an entry kernel
// registered in the KernelRegistry: a C++ callable that *is* the program's
// behaviour (it computes real results on card memory and charges uOS-
// modeled execution time).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include "sim/thread_safety.hpp"
#include <string>
#include <vector>

#include "mic/card.hpp"
#include "sim/actor.hpp"
#include "sim/status.hpp"

namespace vphi::coi {

struct Library {
  std::string name;
  std::uint64_t bytes = 0;
};

struct BinaryImage {
  std::string name;
  std::uint64_t bytes = 0;          ///< executable size streamed to the card
  std::vector<Library> libraries;   ///< dependent .so's streamed alongside
  std::string entry_kernel;         ///< KernelRegistry entry to run as main()

  std::uint64_t total_bytes() const {
    std::uint64_t total = bytes;
    for (const auto& lib : libraries) total += lib.bytes;
    return total;
  }
};

/// Execution context a kernel runs in on the card.
struct KernelContext {
  mic::Card* card = nullptr;
  sim::Actor* actor = nullptr;     ///< the card-side process timeline
  std::uint32_t nthreads = 1;      ///< requested MIC threads
  std::vector<std::string> args;
  std::string output;              ///< becomes the process "stdout"
};

/// A MIC program entry point: returns the process exit code.
using KernelFn = std::function<int(KernelContext&)>;

/// Global name -> kernel table (our stand-in for the k1om loader).
class KernelRegistry {
 public:
  static KernelRegistry& instance();

  void register_kernel(const std::string& name, KernelFn fn);
  sim::Expected<KernelFn> lookup(const std::string& name) const;
  bool contains(const std::string& name) const;

 private:
  mutable sim::Mutex mu_;
  std::map<std::string, KernelFn> table_ VPHI_GUARDED_BY(mu_);
};

}  // namespace vphi::coi
