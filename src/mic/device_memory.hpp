// Card-side GDDR memory: one anonymous host mapping whose pages materialise,
// zeroed, on first touch, with a first-fit allocator on top (sim::PageArena).
// SCIF registered windows on the card and COI buffers live here; RMA and
// mmap resolve to real pointers into it, so data movement is byte-exact.
//
// The simulated card advertises the full 6 GB of a 3120P, but the arena only
// maps `backing_bytes` of it (configurable); allocations beyond that fail
// with kNoMemory exactly like exhausting the real card would. Untouched
// pages cost no host memory, so a large backing is cheap.
#pragma once

#include "sim/page_arena.hpp"

namespace vphi::mic {

using DeviceMemory = sim::PageArena;

}  // namespace vphi::mic
