#include "mic/card.hpp"

namespace vphi::mic {

namespace {
// Booting the uOS (load image over PCIe, kernel init, coi_daemon start)
// takes a few seconds on real hardware; one modeled constant is enough
// since it is outside every measured path in the paper.
constexpr sim::Nanos kBootTime = 4ull * sim::kSecond;
}  // namespace

Card::Card(const CardConfig& config, const sim::CostModel& model)
    : config_(config),
      model_(&model),
      link_(model),
      memory_(config.memory_backing_bytes),
      sysfs_(SysfsInfo::for_3120p(config.index)),
      scheduler_(model),
      card_actor_("mic" + std::to_string(config.index)) {}

void Card::boot() {
  if (online_) return;
  card_actor_.advance(kBootTime);
  sysfs_.set("state", "online");
  online_ = true;
}

}  // namespace vphi::mic
