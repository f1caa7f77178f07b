#include "ssl/async/reactor.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "ssl/async/transport.hpp"
#include "util/random.hpp"
#include "util/timing.hpp"

namespace phissl::ssl::async {

using Clock = std::chrono::steady_clock;

namespace {

// Session-cache entries a stack's connections share, over the
// SessionCacheConfig default of 16 shards.
constexpr std::size_t kSessionCacheCapacity = 4096;

// A workload event for this reactor's key, stamped at `at`; the caller
// sets the outcome fields.
obs::WorkloadEvent workload_event(const rsa::Engine& engine,
                                  Clock::time_point at, obs::WorkloadOp op) {
  obs::WorkloadEvent ev;
  ev.arrival_ns = obs::WorkloadRecorder::global().rel_ns(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              at.time_since_epoch())
              .count()));
  ev.key_bits = static_cast<std::uint32_t>(engine.pub().byte_size() * 8);
  ev.op = op;
  return ev;
}

}  // namespace

/// One open connection: the server machine and whether it is parked on a
/// crypto op (the peer lives in the transport's per-slot state). Only the
/// slot's owning worker touches it, so it needs no lock. Latency samples
/// accumulate per slot and merge after the run — nothing shared on the
/// measurement path.
struct Reactor::Slot {
  std::optional<ServerConnection> server;
  Clock::time_point started{};
  bool op_in_flight = false;
  // Peer reset / vanished. With an op in flight this parks the slot as a
  // zombie: teardown waits for the completion so its result can be
  // discarded safely instead of resuming a recycled connection.
  bool peer_gone = false;
  std::vector<double> latencies_us;
};

/// Cross-thread input for a slot's owner: a slot the acceptor handed over
/// (start), or a crypto completion and its result.
struct Reactor::Post {
  std::size_t slot = 0;
  bool start = false;
  std::optional<std::vector<std::uint8_t>> result;
};

struct Reactor::Worker {
  std::mutex mu;            // guards inbox
  std::vector<Post> inbox;  // filled by other threads, drained per wakeup
  // Touched by this worker only: slots whose next connection starts here
  // (recycled by a reactor-paced transport, or accepted by worker 0).
  std::vector<std::size_t> run;
  // The scalar decrypter's blinding randomness, for this worker's slots.
  util::Rng rng;
};

Reactor::Reactor(const rsa::Engine& server_engine, BatchDecryptService* svc,
                 SessionCache& cache, AdmissionController& admission,
                 const dh::Dh* dhe_group, Transport& transport,
                 const DriverConfig& cfg)
    : engine_(server_engine),
      svc_(svc),
      cache_(cache),
      admission_(admission),
      dhe_group_(dhe_group),
      transport_(transport),
      cfg_(cfg),
      open_gauge_(&obs::Registry::global().gauge(
          "phissl_reactor_open_connections",
          "connections currently open in the event frontend")),
      shed_counter_(&obs::Registry::global().counter(
          "phissl_reactor_shed_total",
          "connections rejected by admission control")),
      reset_counter_(&obs::Registry::global().counter(
          "phissl_reactor_peer_resets_total",
          "connections torn down by peer reset or premature EOF")) {
  if (cfg_.max_open_connections == 0) cfg_.max_open_connections = 1;
  if (cfg_.event_dhe_ratio > 0.0 && dhe_group_ == nullptr) {
    throw std::invalid_argument("Reactor: event_dhe_ratio needs a dhe_group");
  }
  const std::size_t open =
      std::min(cfg_.max_open_connections, cfg_.num_handshakes);
  slots_.reserve(open);
  for (std::size_t i = 0; i < open; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  // A worker that owns no slot would have nothing to do.
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(cfg_.event_workers, open));
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->rng = util::Rng(detail::mix(cfg_.seed) + w);
  }
  transport_.bind(*this);
}

Reactor::~Reactor() = default;

DriverReport Reactor::run() {
  PHISSL_OBS_SPAN("ssl.reactor_run");

  if (transport_.reactor_paced()) {
    // Every worker starts a connection on each slot it owns; each further
    // one is started by the same worker when the slot frees.
    for (std::size_t i = slots_.size(); i-- > 0;) {
      workers_[owner(i)]->run.push_back(i);
    }
  }
  // Accept-paced: every slot starts free; the acceptor claims them as
  // connections arrive.
  if (cfg_.num_handshakes == 0) done_ = true;

  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    threads.emplace_back([this, w] { worker_loop(w); });
  }
  for (auto& t : threads) t.join();
  transport_.stop();

  DriverReport report;
  report.completed = completed_.load();
  report.failed = failed_.load();
  report.shed = shed_.load();
  report.resumed = resumed_.load();
  report.resets = resets_.load();
  const std::uint64_t wakeups = wakeups_.load();
  report.resumptions_per_wakeup =
      wakeups > 0 ? static_cast<double>(events_.load()) /
                        static_cast<double>(wakeups)
                  : 0.0;
  std::vector<double> lats;
  lats.reserve(cfg_.num_handshakes);
  for (const auto& s : slots_) {
    lats.insert(lats.end(), s->latencies_us.begin(), s->latencies_us.end());
  }
  report.latency_us = util::summarize(std::move(lats));
  return report;
}

bool Reactor::accepted(std::size_t slot_idx) {
  if (owner(slot_idx) == 0) {
    // The caller is worker 0 itself: start after its current wait.
    workers_[0]->run.push_back(slot_idx);
    return false;
  }
  post(Post{slot_idx, /*start=*/true, std::nullopt});
  return true;
}

void Reactor::post(Post p) {
  const std::size_t w = owner(p.slot);
  Worker& dst = *workers_[w];
  std::lock_guard<std::mutex> l(dst.mu);
  dst.inbox.push_back(std::move(p));
  // The owner consumes its wake before it drains the whole inbox, so only
  // the post that finds the inbox empty needs to wake it. The wake stays
  // under the lock: once the owner can drain this post the run may end
  // and the transport be destroyed, so a dispatch thread must be done
  // with both before then.
  if (dst.inbox.size() == 1) transport_.wake(w);
}

void Reactor::worker_loop(std::size_t w) {
  auto& wakeup_counter = obs::Registry::global().counter(
      "phissl_reactor_wakeups_total",
      "reactor worker wakeups that resumed parked connections");
  auto& resume_counter = obs::Registry::global().counter(
      "phissl_reactor_resumptions_total",
      "parked connections resumed by reactor workers");
  Worker& me = *workers_[w];
  std::vector<std::size_t> ready;
  std::vector<Post> posts;
  for (;;) {
    while (!me.run.empty()) {
      const std::size_t slot_idx = me.run.back();
      me.run.pop_back();
      start_connection(slot_idx);
    }
    if (done_.load(std::memory_order_acquire)) return;

    ready.clear();
    transport_.wait(w, ready);
    for (const std::size_t slot_idx : ready) {
      // A slot's fd leaves the set when it closes, so a ready slot has a
      // connection; the check keeps a stale event harmless regardless.
      if (slots_[slot_idx]->server.has_value()) pump(slot_idx);
    }

    {
      std::lock_guard<std::mutex> l(me.mu);
      posts.swap(me.inbox);
    }
    // Resumptions-per-wakeup counts crypto completions only (hand-overs
    // would dilute the metric it exists to expose: how many lanemates of
    // one 16-wide batch each wakeup brings back).
    std::size_t resumes = 0;
    for (Post& p : posts) {
      if (p.start) {
        start_connection(p.slot);
      } else {
        ++resumes;
        resume(p.slot, std::move(p.result));
      }
    }
    posts.clear();
    if (resumes > 0) {
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      events_.fetch_add(resumes, std::memory_order_relaxed);
      wakeup_counter.inc();
      resume_counter.inc(resumes);
    }
  }
}

void Reactor::start_connection(std::size_t slot_idx) {
  const std::size_t conn_idx = next_conn_.fetch_add(1);
  // A reactor-paced run draws connections until the total; an accepted
  // peer is served whatever its index.
  if (transport_.reactor_paced() && conn_idx >= cfg_.num_handshakes) {
    return;
  }
  Slot& slot = *slots_[slot_idx];
  slot.started = Clock::now();
  slot.peer_gone = false;
  slot.op_in_flight = false;

  // The group is always offered; whether a connection negotiates DHE is
  // the client's choice (its ClientMix draws it from cfg.event_dhe_ratio).
  slot.server.emplace(engine_, detail::conn_seed(cfg_.seed, conn_idx),
                      &cache_, &admission_, dhe_group_);
  open_gauge_->add(1);
  transport_.open(slot_idx, conn_idx);
  pump(slot_idx);
}

void Reactor::pump(std::size_t slot_idx) {
  Slot& slot = *slots_[slot_idx];
  const IoStatus st = transport_.exchange(slot_idx, *slot.server);
  if (st == IoStatus::kPeerGone) {
    if (!slot.peer_gone) {
      slot.peer_gone = true;
      resets_.fetch_add(1, std::memory_order_relaxed);
      reset_counter_->inc();
    }
    // An op parked at (or created during) the doomed exchange is surplus:
    // release its admission slot and discard — never submit crypto work
    // for a vanished peer.
    if (slot.server->take_pending_op().has_value()) admission_.release();
    if (slot.op_in_flight) {
      // Zombie: an earlier op is still behind the batch service. The slot
      // must not recycle until its completion lands (a new occupant would
      // otherwise receive a stale result), so teardown waits in resume().
      return;
    }
    finish_connection(slot_idx);
    return;
  }
  // Did the server park on a crypto step? Submit and yield the slot —
  // the completion will bring it back through the owner's inbox.
  if (slot.server->has_pending_op()) {
    auto op = slot.server->take_pending_op();
    submit(slot_idx, std::move(*op));
    return;
  }
  if (st == IoStatus::kSettled) {
    // Nothing further to deliver in either direction: the close (or
    // alert) has fully round-tripped.
    finish_connection(slot_idx);
    return;
  }
  // kOk: parked awaiting I/O readiness or (nothing — spurious wakeup).
}

void Reactor::submit(std::size_t slot_idx, PendingOp op) {
  Slot& slot = *slots_[slot_idx];
  // Before the op resolves: it can resolve INLINE (the scalar decrypter,
  // or a malformed ciphertext short-circuiting before the service), and
  // resume() keys off this flag.
  slot.op_in_flight = true;
  if (svc_ == nullptr) {
    // The scalar decrypter: this worker owns the slot, so it resolves the
    // op with the server engine and resumes it as a completion would.
    const Clock::time_point submitted =
        PHISSL_OBS_WORKLOAD_ENABLED ? Clock::now() : Clock::time_point{};
    std::optional<std::vector<std::uint8_t>> result;
    {
      PHISSL_OBS_SPAN("ssl.kex_decrypt");
      result = resolve_pending_op(engine_, op, workers_[owner(slot_idx)]->rng);
    }
    if (PHISSL_OBS_WORKLOAD_ENABLED) {
      // One event per op, unbatched (batch_id 0, lanes 0), as the
      // service records a single-stream op.
      obs::WorkloadRecorder::global().record(workload_event(
          engine_, submitted,
          op.kind == PendingOp::Kind::kPrivateOp ? obs::WorkloadOp::kPrivateOp
                                                 : obs::WorkloadOp::kDheSign));
    }
    resume(slot_idx, std::move(result));
    return;
  }
  // The completion callback runs on a batch-service dispatch thread (or
  // inline, on this worker); per the Completion contract it only posts
  // the result to the slot's owner, never touching the slot itself.
  auto done = [this, slot_idx](std::optional<std::vector<std::uint8_t>> r) {
    post(Post{slot_idx, /*start=*/false, std::move(r)});
  };
  if (op.kind == PendingOp::Kind::kPrivateOp) {
    svc_->decrypt_premaster_async(op.payload, std::move(done));
  } else {
    svc_->sign_digest_async(op.payload, std::move(done));
  }
}

void Reactor::resume(std::size_t slot_idx,
                     std::optional<std::vector<std::uint8_t>> result) {
  Slot& slot = *slots_[slot_idx];
  // Release the admission slot first (it frees before the connection runs
  // on, so a waiting arrival can admit), then re-arm the state machine
  // with the result.
  slot.op_in_flight = false;
  admission_.release();
  if (slot.peer_gone) {
    // The peer reset while the op was in flight; the result is discarded
    // and the zombie slot can finally tear down.
    finish_connection(slot_idx);
    return;
  }
  slot.server->on_crypto_result(std::move(result));
  pump(slot_idx);
}

void Reactor::finish_connection(std::size_t slot_idx) {
  Slot& slot = *slots_[slot_idx];
  slot.latencies_us.push_back(std::chrono::duration<double, std::micro>(
                                  Clock::now() - slot.started)
                                  .count());
  const ServerConnection& conn = *slot.server;
  // Shed and resumed connections never reach the decrypter, so no per-op
  // event covers them — the workload trace gets them here,
  // arrival-stamped at connection start.
  const auto record_outcome = [&](bool is_shed, bool is_resumed) {
    if (!PHISSL_OBS_WORKLOAD_ENABLED) return;
    obs::WorkloadEvent wev =
        workload_event(engine_, slot.started, obs::WorkloadOp::kPrivateOp);
    wev.shed = is_shed;
    wev.resumed = is_resumed;
    obs::WorkloadRecorder::global().record(wev);
  };
  // Outcome is judged on the SERVER side (the socket transport has no
  // view of the client state machine): a clean close with no failure and
  // no shed is a completed termination.
  if (conn.was_shed()) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_counter_->inc();
    record_outcome(/*is_shed=*/true, /*is_resumed=*/false);
  } else if (!slot.peer_gone && conn.state() == ConnState::kClosed &&
             !conn.failed()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (conn.resumed()) {
      resumed_.fetch_add(1, std::memory_order_relaxed);
      record_outcome(/*is_shed=*/false, /*is_resumed=*/true);
    }
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  slot.server.reset();
  open_gauge_->sub(1);
  // Last: a socket transport returns the slot to its free table here, and
  // the acceptor may claim it at once.
  transport_.on_close(slot_idx);
  if (transport_.reactor_paced()) {
    // The next connection starts from the run list, not inline (see the
    // header on recursion). This worker owns the slot, so it is our list.
    workers_[owner(slot_idx)]->run.push_back(slot_idx);
  }

  if (finished_.fetch_add(1) + 1 >= cfg_.num_handshakes) {
    done_.store(true, std::memory_order_release);
    for (std::size_t w = 0; w < workers_.size(); ++w) transport_.wake(w);
  }
}

ServerStack::ServerStack(const rsa::Engine& server_engine,
                         const DriverConfig& cfg, Transport& transport)
    : cache_(SessionCacheConfig{.capacity = kSessionCacheCapacity}),
      admission_(cfg.max_pending_ops) {
  if (!server_engine.has_private()) {
    throw std::invalid_argument("ServerStack: server engine needs a key");
  }
  detail::check_config(cfg);
  if (cfg.batch_private_ops) {
    svc_ = std::make_unique<BatchDecryptService>(
        server_engine.priv(),
        service::SignServiceConfig{
            .dispatch_threads = cfg.batch_dispatch_threads,
            .max_linger = cfg.batch_linger,
            .backend = cfg.batch_backend,
        });
  }
  if (cfg.event_dhe_ratio > 0.0) {
    dhe_group_ = std::make_unique<dh::Dh>(dh::rfc2409_group2(),
                                          server_engine.options().kernel);
  }
  reactor_ = std::make_unique<Reactor>(server_engine, svc_.get(), cache_,
                                       admission_, dhe_group_.get(),
                                       transport, cfg);
}

DriverReport ServerStack::run() {
  util::Stopwatch wall;
  DriverReport report = reactor_->run();
  report.wall_seconds = wall.elapsed_s();
  report.handshakes_per_s =
      report.wall_seconds > 0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;

  const SessionCacheStats cs = cache_.stats();
  report.cache_hits = cs.hits;
  report.cache_misses = cs.misses;
  report.cache_evictions = cs.evictions;
  if (svc_ != nullptr) {
    const service::StatsSnapshot ss = svc_->stats();
    report.service_requests = ss.requests;
    report.batches = ss.batches;
    report.lanes_signed = ss.lanes_signed;
    report.padded_lanes = ss.padded_lanes;
    report.single_ops = ss.single_ops;
    report.batch_lane_occupancy = ss.mean_lane_occupancy;
  }
  return report;
}

DriverReport run_event_handshakes(const rsa::Engine& server_engine,
                                  const DriverConfig& cfg) {
  const rsa::Engine client_engine(server_engine.pub(),
                                  server_engine.options());
  SimulatedTransport transport(client_engine);
  return ServerStack(server_engine, cfg, transport).run();
}

}  // namespace phissl::ssl::async
