#include "scif/fabric.hpp"

#include <chrono>

#include "mic/card.hpp"
#include "scif/endpoint.hpp"

namespace vphi::scif {

std::uint64_t PollHub::wait_change(std::uint64_t seen, int timeout_ms) {
  sim::MutexLock lock(mu_);
  if (timeout_ms < 0) {
    while (version_ == seen) cv_.wait(mu_);
  } else {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (version_ == seen &&
           cv_.wait_until(mu_, deadline) != std::cv_status::timeout) {
    }
  }
  return version_;
}

Fabric::Fabric(const sim::CostModel& model) : model_(&model) {
  nodes_.push_back(std::make_unique<Node>(*this, kHostNode, nullptr));
}

Fabric::~Fabric() = default;

NodeId Fabric::attach_card(mic::Card& card) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, &card));
  return id;
}

Node* Fabric::node(NodeId id) noexcept {
  if (id >= nodes_.size()) return nullptr;
  return nodes_[id].get();
}

void Fabric::charge_card_occupancy(const std::string& tenant,
                                   sim::Nanos busy_ns, sim::Nanos now) {
  if (busy_ns <= 0) return;
  std::shared_ptr<const OccupancyListener> listener;
  {
    sim::MutexLock lock(occupancy_mu_);
    auto it = card_busy_by_tenant_.find(tenant);
    if (it == card_busy_by_tenant_.end()) {
      it = card_busy_by_tenant_
               .emplace(tenant, std::make_unique<sim::metrics::Counter>(
                                    "vphi.card.busy_ns", "vm=" + tenant))
               .first;
    }
    it->second->inc(static_cast<std::uint64_t>(busy_ns));
    listener = occupancy_listener_;
  }
  // Outside the lock: the listener may take the control plane's own mutex.
  if (listener && *listener) (*listener)(tenant, busy_ns, now);
}

void Fabric::set_occupancy_listener(OccupancyListener listener) {
  sim::MutexLock lock(occupancy_mu_);
  occupancy_listener_ = listener
                            ? std::make_shared<const OccupancyListener>(
                                  std::move(listener))
                            : nullptr;
}

std::map<std::string, std::uint64_t> Fabric::card_occupancy() const {
  sim::MutexLock lock(occupancy_mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [tenant, counter] : card_busy_by_tenant_) {
    out[tenant] = counter->value();
  }
  return out;
}

pcie::Link* Fabric::link_between(NodeId a, NodeId b) noexcept {
  if (a == kHostNode && b == kHostNode) return nullptr;
  // Use the non-host node's link; for card<->card pick the initiator's.
  const NodeId card_node = a == kHostNode ? b : a;
  Node* n = node(card_node);
  if (n == nullptr || n->card() == nullptr) return nullptr;
  return &n->card()->link();
}

}  // namespace vphi::scif
