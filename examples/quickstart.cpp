// Quickstart: the smallest end-to-end vPHI program.
//
// Builds the paper's testbed (host + Xeon Phi 3120P + one QEMU-KVM VM with
// the vPHI split driver), starts a SCIF echo server on the card, and talks
// to it from *inside the VM* using the exact libscif-style API. Prints the
// simulated latencies so you can see the virtualization cost the paper
// measures (Fig. 4: ~7 us native vs ~382 us through vPHI).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_quickstart
#include <cstdio>
#include <cstring>
#include <future>

#include "scif/api.hpp"
#include "sim/actor.hpp"
#include "tools/testbed.hpp"

using namespace vphi;           // NOLINT(google-build-using-namespace)
using namespace vphi::scif;     // NOLINT(google-build-using-namespace)

int main() {
  // 1. Assemble the testbed: host, card, SCIF fabric, one VM with vPHI.
  tools::Testbed bed{tools::TestbedConfig{}};
  std::printf("testbed up: card '%s %s', %zu VM(s)\n",
              bed.card().sysfs().get("family")->c_str(),
              bed.card().sysfs().get("sku")->c_str(), bed.vm_count());

  // 2. Card-side echo server (a process on the coprocessor's uOS). It
  //    listens before the guest can connect; only accept runs on its thread.
  constexpr Port kEchoPort = 1'500;
  auto& p = bed.card_provider();
  auto lep = p.open();
  if (!lep || !p.bind(*lep, kEchoPort) || !sim::ok(p.listen(*lep, 4))) {
    std::printf("card listen failed\n");
    return 1;
  }
  auto server = std::async(std::launch::async, [&p, lep = *lep] {
    sim::Actor actor{"card-echo"};
    sim::ActorScope scope(actor);
    auto conn = p.accept(lep, SCIF_ACCEPT_SYNC);
    if (!conn) return;
    // SCIF_RECV_BLOCK waits for the *full* requested length (Intel
    // semantics), so the echo protocol uses fixed 64-byte frames.
    char frame[64];
    for (;;) {
      auto got = p.recv(conn->epd, frame, sizeof(frame), SCIF_RECV_BLOCK);
      if (!got) break;  // client closed
      if (!p.send(conn->epd, frame, sizeof(frame), SCIF_SEND_BLOCK)) break;
    }
  });

  // 3. Guest application: the C-style SCIF API bound to the VM's provider.
  sim::Actor app{"guest-app"};
  sim::ActorScope scope(app);
  api::ProcessContext ctx(bed.vm(0).guest_scif());

  const auto epd = api::scif_open();
  const PortId dst{bed.card_node(), kEchoPort};
  if (epd < 0 || api::scif_connect(epd, &dst) != 0) {
    std::printf("connect failed: %s\n",
                std::string(sim::to_string(api::scif_last_error())).c_str());
    return 1;
  }
  std::printf("guest connected to card echo service at node %u port %u\n",
              dst.node, dst.port);

  char msg[64] = "hello, coprocessor!";
  char reply[64] = {};
  const sim::Nanos before = app.now();
  api::scif_send(epd, msg, sizeof(msg), SCIF_SEND_BLOCK);
  api::scif_recv(epd, reply, sizeof(reply), SCIF_RECV_BLOCK);
  const sim::Nanos rtt = app.now() - before;

  std::printf("echo reply: \"%s\"\n", reply);
  std::printf("guest round trip: %.1f us simulated "
              "(each direction pays the ~375 us vPHI ring overhead)\n",
              sim::to_micros(rtt));

  api::scif_close(epd);
  server.get();
  std::printf("done\n");
  return std::strcmp(msg, reply) == 0 ? 0 : 1;
}
