#include "coi/daemon.hpp"

#include <string>

#include "scif/types.hpp"

namespace vphi::coi {

Daemon::Daemon(scif::Fabric& fabric, mic::Card& card, scif::NodeId card_node)
    : fabric_(&fabric),
      card_(&card),
      card_node_(card_node),
      provider_(std::make_unique<scif::HostProvider>(fabric, card_node)) {}

Daemon::~Daemon() { stop(); }

sim::Status Daemon::start() {
  if (running_.exchange(true)) return sim::Status::kOk;
  auto epd = provider_->open();
  if (!epd) return epd.status();
  listener_epd_ = *epd;
  auto bound = provider_->bind(listener_epd_, kDaemonPort);
  if (!bound) return bound.status();
  const auto listening = provider_->listen(listener_epd_, 16);
  if (!sim::ok(listening)) return listening;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return sim::Status::kOk;
}

void Daemon::stop() {
  if (!running_.exchange(false)) return;
  // Closing the descriptors unblocks the accept loop and live connections.
  provider_->close_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> connections;
  {
    sim::MutexLock lock(conn_mu_);
    connections.swap(connections_);
  }
  for (auto& c : connections) {
    if (c.joinable()) c.join();
  }
}

void Daemon::accept_loop() {
  sim::Actor actor{"coi-daemon"};
  sim::ActorScope scope(actor);
  // The daemon comes up when the uOS finishes booting.
  actor.sync_to(card_->card_actor().now());
  while (running_.load(std::memory_order_relaxed)) {
    auto acc = provider_->accept(listener_epd_, scif::SCIF_ACCEPT_SYNC);
    // An initiator that gave up while queued fails its accept with
    // kConnectionReset; only a stop() ends the loop.
    if (!acc) continue;
    const int epd = acc->epd;
    sim::MutexLock lock(conn_mu_);
    connections_.emplace_back([this, epd] { serve_connection(epd); });
  }
}

void Daemon::serve_connection(int epd) {
  sim::Actor actor{"coi-conn"};
  sim::ActorScope scope(actor);
  auto& p = *provider_;

  CardProcess proc;
  bool have_process = false;
  bool admitted = false;  ///< holds a JobService inflight slot
  std::uint64_t binary_remaining = 0;

  std::vector<std::uint8_t> payload;
  for (;;) {
    auto header = recv_msg(p, epd, payload);
    if (!header) break;  // peer gone
    Decoder dec{payload.data(), payload.size()};

    switch (header->type) {
      case MsgType::kCreateProcess: {
        auto name = dec.string();
        auto bytes = dec.u64();
        auto nlibs = dec.u32();
        if (!name || !bytes || !nlibs) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        proc = CardProcess{};
        proc.image.name = *name;
        proc.image.bytes = *bytes;
        binary_remaining = *bytes;
        for (std::uint32_t i = 0; i < *nlibs; ++i) {
          auto lib_name = dec.string();
          auto lib_bytes = dec.u64();
          if (!lib_name || !lib_bytes) break;
          proc.image.libraries.push_back({*lib_name, *lib_bytes});
          binary_remaining += *lib_bytes;
        }
        auto entry = dec.string();
        auto nthreads = dec.u32();
        auto args = dec.strings();
        if (!entry || !nthreads || !args) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        proc.image.entry_kernel = *entry;
        proc.nthreads = *nthreads;
        proc.args = *args;
        // Optional trailing tenant string: newer clients append it, older
        // clients stop here and get billed under the image name. Decoder
        // bounds-checking makes the probe safe either way.
        proc.tenant = proc.image.name;
        if (dec.remaining() > 0) {
          if (auto tenant = dec.string()) proc.tenant = *tenant;
        }
        if (job_service_ != nullptr) {
          service::Job job;
          job.tenant = proc.tenant;
          job.bytes = binary_remaining;
          job.nthreads = proc.nthreads;
          job.kernel = proc.image.entry_kernel;
          const service::AdmitResult verdict =
              job_service_->admit(job, actor.now());
          if (!verdict.admitted) {
            Encoder e;
            e.put_u32(static_cast<std::uint32_t>(verdict.rejection.reason));
            e.put_string(verdict.rejection.detail);
            send_msg(p, epd, MsgType::kError, e);
            break;
          }
          admitted = true;
        }
        {
          sim::MutexLock lock(stats_mu_);
          proc.pid = next_pid_++;
          ++processes_created_;
        }
        have_process = true;
        break;
      }
      case MsgType::kBinaryChunk: {
        // The chunk bytes themselves arrived through scif_recv, so the
        // streaming time is already charged; just track progress.
        const std::uint64_t n = payload.size();
        binary_remaining = n >= binary_remaining ? 0 : binary_remaining - n;
        if (binary_remaining == 0 && have_process) {
          // Everything landed: exec the binary under the uOS.
          actor.advance(card_->scheduler().exec_cost());
          Encoder e;
          e.put_u64(proc.pid);
          send_msg(p, epd, MsgType::kProcessStarted, e);
        }
        break;
      }
      case MsgType::kAllocBuffer: {
        auto size = dec.u64();
        if (!size || !have_process) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        auto off = card_->memory().allocate(*size);
        Encoder e;
        if (!off) {
          send_msg(p, epd, MsgType::kError, e);
          break;
        }
        proc.buffers.push_back(*off);
        e.put_u64(*off);
        send_msg(p, epd, MsgType::kBufferHandle, e);
        break;
      }
      case MsgType::kFreeBuffer: {
        auto off = dec.u64();
        if (off) card_->memory().free(*off);
        send_msg(p, epd, MsgType::kAck, Encoder{});
        break;
      }
      case MsgType::kWriteBuffer: {
        // offset + len in the payload; the raw bytes follow on the stream.
        auto off = dec.u64();
        auto len = dec.u64();
        if (!off || !len || !card_->memory().covers(*off, *len)) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        auto got = p.recv(epd, card_->memory().at(*off), *len,
                          scif::SCIF_RECV_BLOCK);
        if (!got || *got != *len) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        send_msg(p, epd, MsgType::kAck, Encoder{});
        break;
      }
      case MsgType::kReadBuffer: {
        auto off = dec.u64();
        auto len = dec.u64();
        if (!off || !len || !card_->memory().covers(*off, *len)) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        Encoder e;
        e.put_u64(*len);
        auto sent = send_msg(p, epd, MsgType::kBufferData, e);
        if (!sim::ok(sent)) break;
        p.send(epd, card_->memory().at(*off), *len, scif::SCIF_SEND_BLOCK);
        break;
      }
      case MsgType::kRunFunction: {
        if (!have_process) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        auto kernel_name = dec.string();
        auto args = dec.strings();
        if (!kernel_name || !args) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        // Control-plane throttle point: a tenant over its card-ns window
        // waits out the penalty on the simulated clock before the kernel
        // gets a core.
        if (job_service_ != nullptr) {
          const sim::Nanos delay =
              job_service_->throttle_delay(proc.tenant, actor.now());
          if (delay > 0) actor.advance(delay);
        }
        CardProcess fn_proc = proc;
        fn_proc.image.entry_kernel = *kernel_name;
        fn_proc.args = *args;
        std::string output;
        const int exit_code = run_kernel(fn_proc, actor, output);
        {
          sim::MutexLock lock(stats_mu_);
          ++functions_run_;
        }
        Encoder e;
        e.put_i64(exit_code);
        e.put_string(output);
        send_msg(p, epd, MsgType::kFunctionResult, e);
        break;
      }
      case MsgType::kShutdownProcess: {
        if (!have_process) {
          send_msg(p, epd, MsgType::kError, Encoder{});
          break;
        }
        // Native mode: the whole binary runs as main() now, then exits.
        std::string output;
        const int exit_code = run_kernel(proc, actor, output);
        for (auto off : proc.buffers) card_->memory().free(off);
        proc.buffers.clear();
        if (admitted) {
          job_service_->complete(proc.tenant, actor.now());
          admitted = false;
        }
        Encoder e;
        e.put_i64(exit_code);
        e.put_string(output);
        send_msg(p, epd, MsgType::kProcessExited, e);
        break;
      }
      default:
        send_msg(p, epd, MsgType::kAck, Encoder{});
        break;
    }
  }
  // Connection torn down without an orderly shutdown: release the tenant's
  // inflight slot so a crashed client can't leak quota forever.
  if (admitted) job_service_->complete(proc.tenant, actor.now());
  p.close(epd);
}

int Daemon::run_kernel(CardProcess& proc, sim::Actor& actor,
                       std::string& output) {
  auto kernel = KernelRegistry::instance().lookup(proc.image.entry_kernel);
  if (!kernel) {
    output = "coi_daemon: no such entry point: " + proc.image.entry_kernel;
    return 127;
  }
  // Spawning the requested threads is sequential work for the launcher.
  actor.advance(card_->scheduler().spawn_cost(proc.nthreads));
  KernelContext ctx;
  ctx.card = card_;
  ctx.actor = &actor;
  ctx.nthreads = proc.nthreads;
  ctx.args = proc.args;
  const int code = (*kernel)(ctx);
  output = std::move(ctx.output);
  return code;
}

std::uint64_t Daemon::processes_created() const {
  sim::MutexLock lock(stats_mu_);
  return processes_created_;
}

std::uint64_t Daemon::functions_run() const {
  sim::MutexLock lock(stats_mu_);
  return functions_run_;
}

}  // namespace vphi::coi
