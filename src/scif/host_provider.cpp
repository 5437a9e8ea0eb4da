#include "scif/host_provider.hpp"

#include <vector>

#include "mic/card.hpp"
#include "mic/sysfs.hpp"
#include "sim/actor.hpp"

namespace vphi::scif {

HostProvider::HostProvider(Fabric& fabric, NodeId local_node)
    : fabric_(&fabric), local_node_(local_node) {}

HostProvider::~HostProvider() { close_all(); }

void HostProvider::close_all() {
  std::map<int, std::shared_ptr<Endpoint>> table;
  {
    sim::MutexLock lock(mu_);
    table.swap(table_);
  }
  for (auto& [_, ep] : table) ep->close();
}

sim::Expected<std::shared_ptr<Endpoint>> HostProvider::lookup(int epd) const {
  sim::MutexLock lock(mu_);
  auto it = table_.find(epd);
  if (it == table_.end()) return sim::Status::kBadDescriptor;
  return it->second;
}

sim::Expected<int> HostProvider::open() {
  Node* node = fabric_->node(local_node_);
  if (node == nullptr) return sim::Status::kNoDevice;
  auto ep = std::make_shared<Endpoint>(*node);
  sim::MutexLock lock(mu_);
  const int epd = next_epd_++;
  table_[epd] = std::move(ep);
  return epd;
}

sim::Status HostProvider::close(int epd) {
  std::shared_ptr<Endpoint> ep;
  {
    sim::MutexLock lock(mu_);
    auto it = table_.find(epd);
    if (it == table_.end()) return sim::Status::kBadDescriptor;
    ep = std::move(it->second);
    table_.erase(it);
  }
  return ep->close();
}

sim::Expected<Port> HostProvider::bind(int epd, Port pn) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->bind(pn);
}

sim::Status HostProvider::listen(int epd, int backlog) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->listen(backlog);
}

sim::Status HostProvider::connect(int epd, PortId dst) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->connect(sim::this_actor(), dst);
}

sim::Expected<AcceptResult> HostProvider::accept(int epd, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  PortId peer;
  auto accepted = (*ep)->accept(sim::this_actor(),
                                (flags & SCIF_ACCEPT_SYNC) != 0, &peer);
  if (!accepted) return accepted.status();
  sim::MutexLock lock(mu_);
  const int new_epd = next_epd_++;
  table_[new_epd] = std::move(*accepted);
  return AcceptResult{new_epd, peer};
}

sim::Expected<std::size_t> HostProvider::send(int epd, const void* msg,
                                              std::size_t len, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->send(sim::this_actor(), msg, len, flags);
}

sim::Expected<std::size_t> HostProvider::recv(int epd, void* msg,
                                              std::size_t len, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->recv(sim::this_actor(), msg, len, flags);
}

sim::Expected<RegOffset> HostProvider::register_mem(int epd, void* addr,
                                                    std::size_t len,
                                                    RegOffset offset, int prot,
                                                    int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->register_mem(sim::this_actor(), addr, len, offset, prot, flags,
                             /*guest_backed=*/false);
}

sim::Expected<RegOffset> HostProvider::register_guest_mem(int epd, void* addr,
                                                          std::size_t len,
                                                          RegOffset offset,
                                                          int prot, int flags,
                                                          bool prebuilt_sg) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->register_mem(sim::this_actor(), addr, len, offset, prot, flags,
                             /*guest_backed=*/true, prebuilt_sg);
}

sim::Status HostProvider::unregister_mem(int epd, RegOffset offset,
                                         std::size_t len) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->unregister_mem(offset, len);
}

sim::Status HostProvider::readfrom(int epd, RegOffset loffset, std::size_t len,
                                   RegOffset roffset, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->readfrom(sim::this_actor(), loffset, len, roffset, flags);
}

sim::Status HostProvider::writeto(int epd, RegOffset loffset, std::size_t len,
                                  RegOffset roffset, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->writeto(sim::this_actor(), loffset, len, roffset, flags);
}

sim::Status HostProvider::vreadfrom(int epd, void* addr, std::size_t len,
                                    RegOffset roffset, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->vreadfrom(sim::this_actor(), addr, len, roffset, flags,
                          /*guest_backed=*/false);
}

sim::Status HostProvider::vwriteto(int epd, void* addr, std::size_t len,
                                   RegOffset roffset, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->vwriteto(sim::this_actor(), addr, len, roffset, flags,
                         /*guest_backed=*/false);
}

sim::Status HostProvider::vreadfrom_guest(int epd, void* addr, std::size_t len,
                                          RegOffset roffset, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->vreadfrom(sim::this_actor(), addr, len, roffset, flags,
                          /*guest_backed=*/true);
}

sim::Status HostProvider::vwriteto_guest(int epd, void* addr, std::size_t len,
                                         RegOffset roffset, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->vwriteto(sim::this_actor(), addr, len, roffset, flags,
                         /*guest_backed=*/true);
}

sim::Expected<Mapping> HostProvider::mmap(int epd, RegOffset roffset,
                                          std::size_t len, int prot) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  auto region = (*ep)->mmap(sim::this_actor(), roffset, len, prot);
  if (!region) return region.status();
  sim::MutexLock lock(mu_);
  const std::uint64_t cookie = next_cookie_++;
  Mapping mapping{region->data(), region->size(), roffset, cookie};
  mappings_[cookie] = std::move(*region);
  return mapping;
}

sim::Status HostProvider::munmap(Mapping& mapping) {
  if (!mapping.valid()) return sim::Status::kInvalidArgument;
  MappedRegion region;
  {
    sim::MutexLock lock(mu_);
    auto it = mappings_.find(mapping.cookie);
    if (it == mappings_.end()) return sim::Status::kInvalidArgument;
    region = std::move(it->second);
    mappings_.erase(it);
  }
  mapping = Mapping{};
  return region.release(sim::this_actor());
}

sim::Status HostProvider::map_read(const Mapping& mapping, std::size_t off,
                                   void* dst, std::size_t n) {
  sim::MutexLock lock(mu_);
  auto it = mappings_.find(mapping.cookie);
  if (it == mappings_.end()) return sim::Status::kInvalidArgument;
  return it->second.read(sim::this_actor(), off, dst, n);
}

sim::Status HostProvider::map_write(const Mapping& mapping, std::size_t off,
                                    const void* src, std::size_t n) {
  sim::MutexLock lock(mu_);
  auto it = mappings_.find(mapping.cookie);
  if (it == mappings_.end()) return sim::Status::kInvalidArgument;
  return it->second.write(sim::this_actor(), off, src, n);
}

sim::Expected<int> HostProvider::fence_mark(int epd, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->fence_mark(sim::this_actor(), flags);
}

sim::Status HostProvider::fence_wait(int epd, int mark) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->fence_wait(sim::this_actor(), mark);
}

sim::Status HostProvider::fence_signal(int epd, RegOffset loff,
                                       std::uint64_t lval, RegOffset roff,
                                       std::uint64_t rval, int flags) {
  auto ep = lookup(epd);
  if (!ep) return ep.status();
  return (*ep)->fence_signal(sim::this_actor(), loff, lval, roff, rval, flags);
}

sim::Expected<int> HostProvider::poll(PollEpd* epds, int nepds,
                                      int timeout_ms) {
  if (epds == nullptr || nepds <= 0) return sim::Status::kInvalidArgument;
  auto& actor = sim::this_actor();
  const auto& m = fabric_->model();
  actor.advance(m.host_syscall_ns);
  PollHub& hub = fabric_->poll_hub();
  std::uint64_t seen = hub.version();
  for (;;) {
    int ready = 0;
    for (int i = 0; i < nepds; ++i) {
      auto ep = lookup(epds[i].epd);
      if (!ep) {
        epds[i].revents = SCIF_POLLNVAL;
        ++ready;
        continue;
      }
      epds[i].revents = (*ep)->poll_events(epds[i].events);
      if (epds[i].revents != 0) ++ready;
    }
    if (ready > 0 || timeout_ms == 0) return ready;
    const std::uint64_t now_version = hub.wait_change(seen, timeout_ms);
    if (now_version == seen && timeout_ms > 0) {
      // Timed out: the wait itself consumes the timeout in simulated time.
      actor.advance(static_cast<sim::Nanos>(timeout_ms) * sim::kMillisecond);
      return 0;
    }
    seen = now_version;
  }
}

sim::Expected<NodeIds> HostProvider::get_node_ids() {
  return NodeIds{fabric_->node_count(), local_node_};
}

sim::Expected<mic::SysfsInfo> HostProvider::card_info(std::uint32_t index) {
  Node* node = fabric_->node(static_cast<NodeId>(index + 1));
  if (node == nullptr || node->card() == nullptr) {
    return sim::Status::kNoDevice;
  }
  return node->card()->sysfs();
}

std::shared_ptr<Endpoint> HostProvider::endpoint(int epd) const {
  auto ep = lookup(epd);
  return ep ? *ep : nullptr;
}

}  // namespace vphi::scif
