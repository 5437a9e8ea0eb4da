// Offload-mode runtime: #pragma-offload-style regions over COI.
//
// The paper's second execution mode "permits the user to execute the
// application on the host CPU and offload some compute-intensive workloads
// to the coprocessor using the corresponding directives of a framework,
// e.g. OpenMP". A compiler lowers such a directive into exactly this
// sequence: keep a card process alive, allocate card buffers for the data
// clauses, copy `in`/`inout` data over, run the kernel, copy `out`/`inout`
// data back. OffloadRegion is that lowering, written against any
// scif::Provider — so offload regions run unchanged from the host or from
// inside a VM through vPHI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coi/process.hpp"

namespace vphi::coi::offload {

/// One data clause of an offload region.
struct Clause {
  enum class Dir { kIn, kOut, kInOut };
  Dir dir = Dir::kIn;
  void* host_ptr = nullptr;
  std::uint64_t len = 0;
};

class OffloadRegion {
 public:
  /// Bring up the card-side shadow process (what the offload runtime does
  /// once per application).
  static sim::Expected<OffloadRegion> attach(scif::Provider& provider,
                                             scif::NodeId card_node,
                                             std::uint32_t threads);

  /// Execute one region: transfers per the clauses, then runs `kernel`.
  /// The kernel receives the device offsets and lengths of all clause
  /// buffers as leading args ("<offset> <len>" per clause, in order),
  /// followed by `extra_args`.
  sim::Expected<FunctionResult> run(const std::string& kernel,
                                    std::vector<Clause> clauses,
                                    std::vector<std::string> extra_args);

 private:
  explicit OffloadRegion(Process process) : process_(std::move(process)) {}
  Process process_;
};

}  // namespace vphi::coi::offload
