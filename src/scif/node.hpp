// A SCIF node: one participant in the fabric (the host is node 0; each Xeon
// Phi card is a node 1..N). Owns the node's port space and its reference to
// the card (for card nodes).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "scif/types.hpp"
#include "sim/status.hpp"
#include "sim/thread_safety.hpp"

namespace vphi::mic {
class Card;
}

namespace vphi::scif {

class Endpoint;
class Fabric;

class Node {
 public:
  Node(Fabric& fabric, NodeId id, mic::Card* card);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const noexcept { return id_; }
  Fabric& fabric() noexcept { return *fabric_; }
  /// Null for the host node.
  mic::Card* card() noexcept { return card_; }

  /// Claim `pn`, or an ephemeral port when pn == 0.
  sim::Expected<Port> claim_port(Port pn) VPHI_EXCLUDES(mu_);
  void release_port(Port pn) VPHI_EXCLUDES(mu_);

  /// Register/unregister a listening endpoint on its bound port.
  sim::Status publish_listener(Port pn, std::shared_ptr<Endpoint> ep)
      VPHI_EXCLUDES(mu_);
  void retract_listener(Port pn) VPHI_EXCLUDES(mu_);
  std::shared_ptr<Endpoint> listener_at(Port pn) VPHI_EXCLUDES(mu_);

 private:
  Fabric* fabric_;
  NodeId id_;
  mic::Card* card_;

  sim::Mutex mu_;
  std::map<Port, bool> claimed_ VPHI_GUARDED_BY(mu_);  // port -> claimed
  std::map<Port, std::weak_ptr<Endpoint>> listeners_ VPHI_GUARDED_BY(mu_);
  Port next_ephemeral_ VPHI_GUARDED_BY(mu_) = kEphemeralBase;
};

}  // namespace vphi::scif
