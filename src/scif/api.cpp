#include "scif/api.hpp"

namespace vphi::scif::api {

namespace {
thread_local Provider* g_provider = nullptr;
thread_local sim::Status g_last_error = sim::Status::kOk;

int fail(sim::Status s) {
  g_last_error = s;
  return -1;
}
}  // namespace

ProcessContext::ProcessContext(Provider& provider) : previous_(g_provider) {
  g_provider = &provider;
}

ProcessContext::~ProcessContext() { g_provider = previous_; }

sim::Status scif_last_error() noexcept { return g_last_error; }

scif_epd_t scif_open() {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  auto epd = g_provider->open();
  if (!epd) return fail(epd.status());
  return *epd;
}

int scif_close(scif_epd_t epd) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->close(epd);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_bind(scif_epd_t epd, Port pn) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  auto port = g_provider->bind(epd, pn);
  if (!port) return fail(port.status());
  return static_cast<int>(*port);
}

int scif_listen(scif_epd_t epd, int backlog) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->listen(epd, backlog);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_connect(scif_epd_t epd, const PortId* dst) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  if (dst == nullptr) return fail(sim::Status::kBadAddress);
  const auto s = g_provider->connect(epd, *dst);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_accept(scif_epd_t epd, PortId* peer, scif_epd_t* newepd, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  if (newepd == nullptr) return fail(sim::Status::kBadAddress);
  auto result = g_provider->accept(epd, flags);
  if (!result) return fail(result.status());
  *newepd = result->epd;
  if (peer != nullptr) *peer = result->peer;
  return 0;
}

long scif_send(scif_epd_t epd, const void* msg, std::size_t len, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  auto n = g_provider->send(epd, msg, len, flags);
  if (!n) return fail(n.status());
  return static_cast<long>(*n);
}

long scif_recv(scif_epd_t epd, void* msg, std::size_t len, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  auto n = g_provider->recv(epd, msg, len, flags);
  if (!n) return fail(n.status());
  return static_cast<long>(*n);
}

long scif_register(scif_epd_t epd, void* addr, std::size_t len,
                   RegOffset offset, int prot, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  auto off = g_provider->register_mem(epd, addr, len, offset, prot, flags);
  if (!off) return fail(off.status());
  return static_cast<long>(*off);
}

int scif_unregister(scif_epd_t epd, RegOffset offset, std::size_t len) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->unregister_mem(epd, offset, len);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_readfrom(scif_epd_t epd, RegOffset loffset, std::size_t len,
                  RegOffset roffset, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->readfrom(epd, loffset, len, roffset, flags);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_writeto(scif_epd_t epd, RegOffset loffset, std::size_t len,
                 RegOffset roffset, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->writeto(epd, loffset, len, roffset, flags);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_vreadfrom(scif_epd_t epd, void* addr, std::size_t len,
                   RegOffset roffset, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->vreadfrom(epd, addr, len, roffset, flags);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_vwriteto(scif_epd_t epd, void* addr, std::size_t len,
                  RegOffset roffset, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->vwriteto(epd, addr, len, roffset, flags);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_fence_mark(scif_epd_t epd, int flags, int* mark) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  if (mark == nullptr) return fail(sim::Status::kBadAddress);
  auto m = g_provider->fence_mark(epd, flags);
  if (!m) return fail(m.status());
  *mark = *m;
  return 0;
}

int scif_fence_wait(scif_epd_t epd, int mark) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->fence_wait(epd, mark);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_fence_signal(scif_epd_t epd, RegOffset loff, std::uint64_t lval,
                      RegOffset roff, std::uint64_t rval, int flags) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  const auto s = g_provider->fence_signal(epd, loff, lval, roff, rval, flags);
  return sim::ok(s) ? 0 : fail(s);
}

int scif_poll(PollEpd* epds, unsigned int nepds, long timeout_ms) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  auto n = g_provider->poll(epds, static_cast<int>(nepds),
                            static_cast<int>(timeout_ms));
  if (!n) return fail(n.status());
  return *n;
}

int scif_get_node_ids(NodeId* nodes, int len, NodeId* self) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  auto ids = g_provider->get_node_ids();
  if (!ids) return fail(ids.status());
  if (self != nullptr) *self = ids->self;
  if (nodes != nullptr) {
    for (int i = 0; i < len && i < static_cast<int>(ids->total); ++i) {
      nodes[i] = static_cast<NodeId>(i);
    }
  }
  return static_cast<int>(ids->total);
}

int scif_mmap(scif_epd_t epd, RegOffset roffset, std::size_t len, int prot,
              Mapping* out) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  if (out == nullptr) return fail(sim::Status::kBadAddress);
  auto mapping = g_provider->mmap(epd, roffset, len, prot);
  if (!mapping) return fail(mapping.status());
  *out = *mapping;
  return 0;
}

int scif_munmap(Mapping* mapping) {
  if (g_provider == nullptr) return fail(sim::Status::kNoDevice);
  if (mapping == nullptr) return fail(sim::Status::kBadAddress);
  const auto s = g_provider->munmap(*mapping);
  return sim::ok(s) ? 0 : fail(s);
}

}  // namespace vphi::scif::api
