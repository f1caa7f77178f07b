#include "ssl/async/reactor.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "ssl/async/transport.hpp"
#include "util/timing.hpp"

namespace phissl::ssl::async {

using Clock = std::chrono::steady_clock;

/// One open connection: the server machine and the bookkeeping for the
/// crypto op it may be parked on (the peer lives in the transport's
/// per-slot state). The connection fields are owned by exactly one worker
/// at a time, so they need no lock; the scheduling flags at the bottom
/// are what ENFORCE that ownership and are only touched under the reactor
/// mutex. Latency samples accumulate per slot and merge after the run —
/// nothing shared on the measurement path.
struct Reactor::Slot {
  std::optional<ServerConnection> server;
  std::size_t conn_idx = 0;
  Clock::time_point started{};
  // The op in flight, for admission feedback on resume.
  std::size_t depth_at_admit = 0;
  Clock::time_point op_submitted{};
  bool op_in_flight = false;
  // Peer reset / vanished. With an op in flight this parks the slot as a
  // zombie: teardown waits for the completion so its result can be
  // discarded safely instead of resuming a recycled connection.
  bool peer_gone = false;
  std::vector<double> latencies_us;

  // --- Scheduling flags, guarded by Reactor::mu_ ----------------------
  // queued/running say the slot has an event in the ready queue / is
  // being processed; the pending_* flags hold events that arrived while
  // it was, replayed one at a time by release_event_slot().
  bool queued = false;
  bool running = false;
  bool repump = false;         // coalesced I/O readiness
  bool has_result = false;     // coalesced crypto completion
  bool start_pending = false;  // recycle / accepted connection waiting
  bool release_pending = false;  // return to the free table when quiet
  std::size_t pending_conn = 0;
  std::optional<std::vector<std::uint8_t>> pending_result;
};

struct Reactor::Event {
  enum class Kind { kStart, kResume, kIo };
  Kind kind{};
  std::size_t slot = 0;
  std::size_t conn_idx = 0;  // kStart only
  std::optional<std::vector<std::uint8_t>> result;  // kResume only
};

Reactor::Reactor(const rsa::Engine& server_engine, BatchDecryptService& svc,
                 SessionCache& cache, AdmissionController& admission,
                 const dh::Dh* dhe_group, Transport& transport,
                 ReactorConfig cfg)
    : engine_(server_engine),
      svc_(svc),
      cache_(cache),
      admission_(admission),
      dhe_group_(dhe_group),
      transport_(transport),
      cfg_(std::move(cfg)),
      open_gauge_(&obs::Registry::global().gauge(
          "phissl_reactor_open_connections",
          "connections currently open in the event frontend")),
      shed_counter_(&obs::Registry::global().counter(
          "phissl_reactor_shed_total",
          "connections rejected by admission control")),
      reset_counter_(&obs::Registry::global().counter(
          "phissl_reactor_peer_resets_total",
          "connections torn down by peer reset or premature EOF")) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.max_open_connections == 0) cfg_.max_open_connections = 1;
  if (cfg_.identity_pool == 0) cfg_.identity_pool = 1;
  if (cfg_.dhe_ratio > 0.0 && dhe_group_ == nullptr) {
    throw std::invalid_argument("Reactor: dhe_ratio needs a dhe_group");
  }
  const std::size_t open =
      std::min(cfg_.max_open_connections, cfg_.total_connections);
  slots_.reserve(open);
  for (std::size_t i = 0; i < open; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  transport_.bind(*this);
}

Reactor::~Reactor() = default;

ReactorStats Reactor::run() {
  PHISSL_OBS_SPAN("ssl.reactor_run");

  {
    std::lock_guard<std::mutex> l(mu_);
    if (transport_.reactor_paced()) {
      // Seed the queue with one start per slot; every further connection
      // is started by the worker that frees the slot.
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        const std::size_t conn = next_conn_.fetch_add(1);
        if (conn >= cfg_.total_connections) break;
        slots_[i]->queued = true;
        ready_.push_back(Event{Event::Kind::kStart, i, conn, std::nullopt});
      }
    } else {
      // Accept-paced: every slot starts free; the transport claims them
      // as connections arrive.
      free_slots_.reserve(slots_.size());
      for (std::size_t i = slots_.size(); i-- > 0;) {
        free_slots_.push_back(i);
      }
    }
    if (cfg_.total_connections == 0) done_ = true;
  }
  transport_.start();

  std::vector<std::thread> workers;
  workers.reserve(cfg_.workers);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    workers.emplace_back([this] { worker_loop(); });
  }
  for (auto& t : workers) t.join();
  transport_.stop();

  ReactorStats stats;
  stats.completed = completed_.load();
  stats.failed = failed_.load();
  stats.shed = shed_.load();
  stats.resumed = resumed_.load();
  stats.resets = resets_.load();
  stats.wakeups = wakeups_.load();
  stats.resumptions = events_.load();
  stats.resumptions_per_wakeup =
      stats.wakeups > 0
          ? static_cast<double>(stats.resumptions) / static_cast<double>(stats.wakeups)
          : 0.0;
  std::vector<double> lats;
  lats.reserve(cfg_.total_connections);
  for (const auto& s : slots_) {
    lats.insert(lats.end(), s->latencies_us.begin(), s->latencies_us.end());
  }
  stats.latency_us = util::summarize(std::move(lats));
  return stats;
}

std::optional<std::size_t> Reactor::claim_slot() {
  std::lock_guard<std::mutex> l(mu_);
  if (free_slots_.empty()) return std::nullopt;
  const std::size_t idx = free_slots_.back();
  free_slots_.pop_back();
  return idx;
}

void Reactor::release_slot(std::size_t slot_idx) {
  std::lock_guard<std::mutex> l(mu_);
  free_slots_.push_back(slot_idx);
}

void Reactor::start_accepted(std::size_t slot_idx) {
  const std::size_t conn = next_conn_.fetch_add(1);
  std::lock_guard<std::mutex> l(mu_);
  Slot& slot = *slots_[slot_idx];
  if (slot.queued || slot.running) {
    // A stale readiness event for the slot's previous occupant is still
    // draining; the start replays after it (release_event_slot).
    slot.pending_conn = conn;
    slot.start_pending = true;
    return;
  }
  slot.queued = true;
  ready_.push_back(Event{Event::Kind::kStart, slot_idx, conn, std::nullopt});
  cv_.notify_one();
}

void Reactor::notify_io(std::size_t slot_idx) {
  std::lock_guard<std::mutex> l(mu_);
  Slot& slot = *slots_[slot_idx];
  if (slot.queued || slot.running) {
    slot.repump = true;
    return;
  }
  slot.queued = true;
  ready_.push_back(Event{Event::Kind::kIo, slot_idx, 0, std::nullopt});
  cv_.notify_one();
}

void Reactor::worker_loop() {
  auto& wakeup_counter = obs::Registry::global().counter(
      "phissl_reactor_wakeups_total",
      "reactor worker wakeups that resumed parked connections");
  auto& resume_counter = obs::Registry::global().counter(
      "phissl_reactor_resumptions_total",
      "parked connections resumed by reactor workers");
  for (;;) {
    std::vector<Event> batch;
    {
      std::unique_lock<std::mutex> l(mu_);
      cv_.wait(l, [this] { return done_ || !ready_.empty(); });
      if (ready_.empty()) return;  // done_ and drained
      // Take a bounded chunk, not the whole queue: the whole-queue grab
      // would serialize everything onto one worker; a chunk still
      // amortizes the wakeup across completions that landed together
      // (typically lanemates of one 16-wide batch).
      const std::size_t take =
          std::min<std::size_t>(ready_.size(), std::max<std::size_t>(
              std::size_t{1}, ready_.size() / cfg_.workers + 1));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        Event& ev = ready_.front();
        // Ownership transfer: queued -> running while still under the
        // lock, so any event source that fires from here on coalesces
        // into the slot's pending flags.
        Slot& slot = *slots_[ev.slot];
        slot.queued = false;
        slot.running = true;
        batch.push_back(std::move(ev));
        ready_.pop_front();
      }
    }
    // Resumptions-per-wakeup counts crypto resumes only (starts and I/O
    // readiness would dilute the metric it exists to expose: how many
    // lanemates of one 16-wide batch each wakeup brings back).
    std::size_t resumes = 0;
    for (const auto& ev : batch) {
      if (ev.kind == Event::Kind::kResume) ++resumes;
    }
    if (resumes > 0) {
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      events_.fetch_add(resumes, std::memory_order_relaxed);
      wakeup_counter.inc();
      resume_counter.inc(resumes);
    }
    for (auto& ev : batch) {
      handle_event(ev);
      release_event_slot(ev.slot);
    }
  }
}

void Reactor::handle_event(Event& ev) {
  Slot& slot = *slots_[ev.slot];
  switch (ev.kind) {
    case Event::Kind::kStart:
      start_connection(ev.slot, ev.conn_idx);
      return;
    case Event::Kind::kIo:
      // Readiness can outlive its connection (the poller saw the event
      // before the worker closed the fd) — then there is nothing to pump.
      if (slot.server.has_value()) pump(ev.slot);
      return;
    case Event::Kind::kResume: {
      // Close the admission loop first (the pending-op slot frees before
      // the connection runs on, so a waiting arrival can admit), then
      // re-arm the state machine with the batch result.
      slot.op_in_flight = false;
      const double latency_us =
          std::chrono::duration<double, std::micro>(Clock::now() -
                                                    slot.op_submitted)
              .count();
      admission_.on_complete(slot.depth_at_admit, latency_us);
      if (slot.peer_gone) {
        // The peer reset while the op was in flight; the result is
        // discarded and the zombie slot can finally tear down.
        finish_connection(ev.slot);
        return;
      }
      slot.server->on_crypto_result(std::move(ev.result));
      pump(ev.slot);
      return;
    }
  }
}

// The slot's owning worker is done with this event: replay whatever
// arrived meanwhile (completion first — it unparks the machine — then
// readiness, then a waiting start), or return the slot to the free table.
void Reactor::release_event_slot(std::size_t slot_idx) {
  bool freed = false;
  {
    std::lock_guard<std::mutex> l(mu_);
    Slot& slot = *slots_[slot_idx];
    slot.running = false;
    if (slot.has_result) {
      slot.has_result = false;
      slot.queued = true;
      ready_.push_back(Event{Event::Kind::kResume, slot_idx, 0,
                             std::move(slot.pending_result)});
      slot.pending_result.reset();
      cv_.notify_one();
    } else if (slot.repump) {
      slot.repump = false;
      slot.queued = true;
      ready_.push_back(Event{Event::Kind::kIo, slot_idx, 0, std::nullopt});
      cv_.notify_one();
    } else if (slot.start_pending) {
      slot.start_pending = false;
      slot.queued = true;
      ready_.push_back(Event{Event::Kind::kStart, slot_idx,
                             slot.pending_conn, std::nullopt});
      cv_.notify_one();
    } else if (slot.release_pending) {
      slot.release_pending = false;
      free_slots_.push_back(slot_idx);
      freed = true;
    }
  }
  // Outside the lock: the transport may call straight back into
  // claim_slot from its accept path.
  if (freed) transport_.on_slot_freed(slot_idx);
}

void Reactor::start_connection(std::size_t slot_idx, std::size_t conn_idx) {
  Slot& slot = *slots_[slot_idx];
  slot.conn_idx = conn_idx;
  slot.started = Clock::now();
  slot.peer_gone = false;
  slot.op_in_flight = false;

  const std::uint64_t seed =
      detail::mix(cfg_.seed) ^ detail::mix(conn_idx + 1);
  // The group is always offered; whether a connection negotiates DHE is
  // the client's choice (the transport draws it from cfg.dhe_ratio).
  slot.server.emplace(engine_, seed, &cache_, &admission_, dhe_group_);
  open_gauge_->add(1);
  transport_.open(slot_idx, conn_idx, seed);
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
    if (auto op = slot.server->take_pending_op(); op.has_value()) {
      admission_.on_complete(op->depth_at_admit, 0.0);
    }
    if (slot.op_in_flight) {
      // Zombie: an earlier op is still behind the batch service. The slot
      // must not recycle until its completion lands (a new occupant would
      // otherwise receive a stale result), so teardown waits in the
      // kResume handler.
      return;
    }
    finish_connection(slot_idx);
    return;
  }
  // Did the server park on a crypto step? Submit and yield the slot —
  // the completion will bring it back through the ready queue.
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
  slot.depth_at_admit = op.depth_at_admit;
  slot.op_submitted = Clock::now();
  // Before the async call: the completion can run INLINE (malformed
  // ciphertext short-circuits before the service), and the kResume
  // handler keys off this flag.
  slot.op_in_flight = true;
  // The completion callback runs on a batch-service dispatch thread; per
  // the Completion contract it only enqueues the resume event. Safe here
  // because enqueue_resume never re-enters the slot.
  auto done = [this, slot_idx](std::optional<std::vector<std::uint8_t>> r) {
    enqueue_resume(slot_idx, std::move(r));
  };
  if (op.kind == PendingOp::Kind::kPrivateOp) {
    svc_.decrypt_premaster_async(op.payload, std::move(done));
  } else {
    svc_.sign_digest_async(op.payload, std::move(done));
  }
}

void Reactor::enqueue_resume(std::size_t slot_idx,
                             std::optional<std::vector<std::uint8_t>> result) {
  std::lock_guard<std::mutex> l(mu_);
  Slot& slot = *slots_[slot_idx];
  if (slot.queued || slot.running) {
    // The owning worker is mid-event (inline completion, or readiness
    // beat us here); it replays the resume when it releases the slot.
    slot.pending_result = std::move(result);
    slot.has_result = true;
    return;
  }
  slot.queued = true;
  ready_.push_back(
      Event{Event::Kind::kResume, slot_idx, 0, std::move(result)});
  cv_.notify_one();
}

void Reactor::finish_connection(std::size_t slot_idx) {
  Slot& slot = *slots_[slot_idx];
  slot.latencies_us.push_back(std::chrono::duration<double, std::micro>(
                                  Clock::now() - slot.started)
                                  .count());
  const ServerConnection& conn = *slot.server;
  // Shed and resumed connections never reach the batch service, so the
  // per-lane events SignService records can't cover them — the workload
  // trace gets them here, arrival-stamped at connection start.
  const auto record_outcome = [&](bool is_shed, bool is_resumed) {
    if (!PHISSL_OBS_WORKLOAD_ENABLED) return;
    obs::WorkloadRecorder& rec = obs::WorkloadRecorder::global();
    obs::WorkloadEvent wev;
    wev.arrival_ns = rec.rel_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            slot.started.time_since_epoch())
            .count()));
    wev.key_bits =
        static_cast<std::uint32_t>(engine_.pub().byte_size() * 8);
    wev.op = obs::WorkloadOp::kPrivateOp;
    wev.shed = is_shed;
    wev.resumed = is_resumed;
    rec.record(wev);
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
  transport_.on_close(slot_idx, conn);
  slot.server.reset();
  open_gauge_->sub(1);

  // Recycle the slot. The next connection goes through the ready queue
  // rather than starting inline: a shed storm would otherwise recurse
  // finish -> start -> pump -> finish thousands of frames deep. The
  // pending flags (not a direct push) keep the replay ordered behind
  // whatever else raced in — release_event_slot does the actual enqueue.
  const std::size_t finished = finished_.fetch_add(1) + 1;
  std::lock_guard<std::mutex> l(mu_);
  if (transport_.reactor_paced()) {
    const std::size_t conn_next = next_conn_.fetch_add(1);
    if (conn_next < cfg_.total_connections) {
      slot.pending_conn = conn_next;
      slot.start_pending = true;
    }
  } else {
    slot.release_pending = true;
  }
  if (finished >= cfg_.total_connections) {
    done_ = true;
    cv_.notify_all();
  }
}

DriverReport fold_driver_report(const ReactorStats& stats,
                                double wall_seconds,
                                const SessionCache& cache,
                                BatchDecryptService& svc) {
  DriverReport report;
  report.wall_seconds = wall_seconds;
  report.completed = stats.completed;
  report.failed = stats.failed;
  report.resumed = stats.resumed;
  report.shed = stats.shed;
  report.resets = stats.resets;
  report.resumptions_per_wakeup = stats.resumptions_per_wakeup;
  report.handshakes_per_s =
      report.wall_seconds > 0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;
  report.latency_us = stats.latency_us;

  const SessionCacheStats cs = cache.stats();
  report.cache_hits = cs.hits;
  report.cache_misses = cs.misses;
  report.cache_evictions = cs.evictions;
  const service::StatsSnapshot ss = svc.stats();
  fold_service_stats(ss, report);
  return report;
}

DriverReport run_event_handshakes(const rsa::Engine& server_engine,
                                  const DriverConfig& cfg) {
  if (!server_engine.has_private()) {
    throw std::invalid_argument(
        "run_event_handshakes: server engine needs a key");
  }
  if (cfg.resumption_ratio < 0.0 || cfg.resumption_ratio > 1.0 ||
      cfg.event_dhe_ratio < 0.0 || cfg.event_dhe_ratio > 1.0) {
    throw std::invalid_argument("run_event_handshakes: bad ratio");
  }

  // The event frontend exists to feed the batch service from parked
  // connections, so unlike the threaded path it is not optional here.
  BatchDecryptService svc(
      server_engine.priv(),
      BatchDecryptConfig{
          .dispatch_threads = cfg.batch_dispatch_threads,
          .max_linger = cfg.batch_linger,
          .max_batch_lanes = cfg.batch_max_lanes,
          .digit_bits = server_engine.options().digit_bits,
          .backend = cfg.batch_backend,
      });
  SessionCache cache(SessionCacheConfig{.capacity = cfg.cache_capacity,
                                        .shards = cfg.cache_shards});
  AdmissionController admission(cfg.admission);
  std::optional<dh::Dh> dhe_group;
  if (cfg.event_dhe_ratio > 0.0) {
    dhe_group.emplace(dh::rfc2409_group2(), server_engine.options().kernel);
  }

  const ReactorConfig rcfg{
      .workers = cfg.event_workers,
      .max_open_connections = cfg.max_open_connections,
      .total_connections = cfg.num_handshakes,
      .seed = cfg.seed,
      .resumption_ratio = cfg.resumption_ratio,
      .dhe_ratio = cfg.event_dhe_ratio,
      .identity_pool = identity_pool_for(cfg.num_handshakes),
  };
  const rsa::Engine client_engine(server_engine.pub(),
                                  server_engine.options());
  SimulatedTransport transport(client_engine, rcfg);
  Reactor reactor(server_engine, svc, cache, admission,
                  dhe_group.has_value() ? &*dhe_group : nullptr, transport,
                  rcfg);

  util::Stopwatch wall;
  const ReactorStats stats = reactor.run();
  return fold_driver_report(stats, wall.elapsed_s(), cache, svc);
}

}  // namespace phissl::ssl::async
