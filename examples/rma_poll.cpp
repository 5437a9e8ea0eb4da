// RDMA + polling from inside a VM: the high-performance-interconnect idiom
// Sec. II-B describes — a producer on the card writes into registered
// memory and raises a completion flag with scif_fence_signal; the consumer
// in the guest polls the flag instead of blocking in recv.
//
//   ./build/examples/example_rma_poll
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>

#include "scif/types.hpp"
#include "sim/actor.hpp"
#include "sim/rng.hpp"
#include "tools/testbed.hpp"

using namespace vphi;        // NOLINT(google-build-using-namespace)
using namespace vphi::scif;  // NOLINT(google-build-using-namespace)

namespace {
constexpr Port kPort = 1'700;
constexpr std::size_t kPayload = 4ull << 20;
// The completion flag lives in the last 8 bytes of the guest window.
constexpr std::size_t kWindow = kPayload + 4'096;
constexpr std::uint64_t kDoneFlag = 0xD04EF1A6;
}  // namespace

int main() {
  tools::Testbed bed{tools::TestbedConfig{}};

  // Card-side producer: accepts, registers device memory, and pushes the
  // payload into the *guest's* window with scif_writeto, then signals. It
  // listens before the guest can connect; only accept runs on its thread.
  auto& p = bed.card_provider();
  auto lep = p.open();
  if (!lep || !p.bind(*lep, kPort) || !sim::ok(p.listen(*lep, 1))) {
    std::printf("card listen failed\n");
    return 1;
  }
  // The simulated time the completion flag was raised: a spinning guest
  // sees it at its first probe at or after this instant.
  std::promise<sim::Nanos> signalled;
  auto signal_ts = signalled.get_future();
  auto producer = std::async(std::launch::async, [&bed, &p, lep = *lep,
                                                  &signalled] {
    sim::Actor actor{"card-producer", sim::Actor::AtNow{}};
    sim::ActorScope scope(actor);
    auto conn = p.accept(lep, SCIF_ACCEPT_SYNC);
    if (!conn) return 1;

    // Source data in card GDDR.
    auto dev = bed.card().memory().allocate(kPayload);
    auto* src = static_cast<std::byte*>(bed.card().memory().at(*dev));
    sim::Rng rng{2024};
    rng.fill(src, kPayload);
    auto reg = p.register_mem(conn->epd, src, kPayload, 0, SCIF_PROT_READ, 0);
    if (!reg) return 1;

    // Wait for the consumer's "window registered" byte before writing.
    char ready = 0;
    if (!p.recv(conn->epd, &ready, 1, SCIF_RECV_BLOCK)) return 1;

    // Push payload into the peer's registered window (offset 0), then
    // signal completion at the flag offset.
    if (!sim::ok(p.writeto(conn->epd, *reg, kPayload, 0, SCIF_RMA_SYNC))) {
      return 1;
    }
    if (!sim::ok(p.fence_signal(conn->epd, 0, 0, kPayload, kDoneFlag,
                                SCIF_SIGNAL_REMOTE))) {
      return 1;
    }
    signalled.set_value(actor.now());
    std::printf("[card] pushed %zu MiB + raised completion flag\n",
                kPayload >> 20);
    // Hold the endpoint until the consumer is done.
    char ack;
    p.recv(conn->epd, &ack, 1, SCIF_RECV_BLOCK);
    return 0;
  });

  // Guest-side consumer.
  sim::Actor actor{"guest-consumer", sim::Actor::AtNow{}};
  sim::ActorScope scope(actor);
  auto& guest = bed.vm(0).guest_scif();
  auto epd = guest.open();
  if (!epd || !sim::ok(guest.connect(*epd, PortId{bed.card_node(), kPort}))) {
    std::printf("guest connect failed\n");
    return 1;
  }

  // Register a pinned guest window: payload area + flag page.
  auto buf = bed.vm(0).alloc_user_buffer(kWindow);
  auto* window = static_cast<std::byte*>(*buf);
  std::memset(window, 0, kWindow);
  // SCIF_MAP_FIXED at offset 0: the producer names the window by that
  // offset in its writeto/fence_signal without an out-of-band exchange.
  auto reg = guest.register_mem(*epd, window, kWindow, 0,
                                SCIF_PROT_READ | SCIF_PROT_WRITE,
                                SCIF_MAP_FIXED);
  if (!reg) {
    std::printf("guest register failed\n");
    return 1;
  }

  // Tell the producer the window is live.
  char ready = 1;
  guest.send(*epd, &ready, 1, SCIF_SEND_BLOCK);

  // Poll the flag. Host probes cost no simulated time, so how long the
  // host takes to run the producer does not age the guest. Once the flag
  // is seen, the spin is charged as a real one would run: one 200 ns probe
  // after another up to the first at or after the flag was raised.
  std::printf("[guest] window registered, polling for completion...\n");
  constexpr sim::Nanos kProbeNs = 200;
  const sim::Nanos spin_start = actor.now();
  std::uint64_t flag = 0;
  while (flag != kDoneFlag) {
    std::memcpy(&flag, window + kPayload, sizeof(flag));
    std::this_thread::yield();
  }
  const sim::Nanos raised = std::max(signal_ts.get(), spin_start);
  const sim::Nanos probes = std::max<sim::Nanos>(
      1, (raised - spin_start + kProbeNs - 1) / kProbeNs);
  actor.sync_to(spin_start + probes * kProbeNs);
  std::printf("[guest] completion observed after %llu probes\n",
              static_cast<unsigned long long>(probes));

  // Validate the payload against the producer's PRNG stream.
  sim::Rng check{2024};
  std::vector<std::byte> expect(kPayload);
  check.fill(expect.data(), kPayload);
  const bool ok = std::memcmp(window, expect.data(), kPayload) == 0;
  std::printf("[guest] payload %s\n", ok ? "verified byte-exact" : "CORRUPT");

  char ack = 1;
  guest.send(*epd, &ack, 1, SCIF_SEND_BLOCK);
  producer.get();
  return ok ? 0 : 1;
}
