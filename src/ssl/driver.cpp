#include "ssl/driver.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "obs/workload.hpp"
#include "ssl/async/reactor.hpp"
#include "ssl/async/transport.hpp"
#include "ssl/batch_decrypt.hpp"
#include "ssl/handshake.hpp"
#include "ssl/record.hpp"
#include "ssl/session_cache.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "util/timing.hpp"

namespace phissl::ssl {

namespace {

// One handshake (full or resumed) plus a protected echo; returns whether
// a session was established and whether it was resumed. `last_session` is
// updated so subsequent calls can resume.
struct HandshakeOutcome {
  bool ok = false;
  bool resumed = false;
};

HandshakeOutcome one_handshake(const rsa::Engine& server_engine,
                               const rsa::Engine& client_engine,
                               SessionCache& cache, util::Rng& rng,
                               std::optional<ResumableSession>& last_session,
                               bool try_resume, KexDecrypter* decrypter) {
  PHISSL_OBS_SPAN("ssl.handshake");
  ServerHandshake server(server_engine, rng, &cache, decrypter);
  ClientHandshake client(client_engine, rng);

  const ClientHello ch =
      client.start(try_resume ? last_session : std::nullopt);
  const auto flight = server.on_client_hello(ch);
  if (!flight) return {};

  HandshakeOutcome outcome;
  if (flight.value().hello.resumed) {
    // Abbreviated flow.
    if (!flight.value().finished.has_value()) return {};
    const auto client_fin =
        client.on_resumed_hello(flight.value().hello, *flight.value().finished);
    if (!client_fin) return {};
    if (!server.on_resumed_client_finished(client_fin.value())) return {};
    outcome.resumed = true;
  } else {
    if (!flight.value().certificate.has_value()) return {};
    const auto kex = client.on_server_hello(flight.value().hello,
                                            *flight.value().certificate);
    if (!kex) return {};
    const auto fin =
        server.on_key_exchange(kex.value().first, kex.value().second);
    if (!fin) return {};
    if (!client.on_server_finished(fin.value())) return {};
  }
  if (client.master() != server.master()) return {};
  last_session = client.resumable();

  // Prove the derived traffic keys work: one request/response exchange.
  Session client_session(client.session_keys(), /*is_server=*/false);
  Session server_session(server.session_keys(), /*is_server=*/true);
  const std::vector<std::uint8_t> ping = {'p', 'i', 'n', 'g'};
  const auto at_server = server_session.receive(client_session.send(ping, rng));
  if (!at_server || *at_server != ping) return {};
  const auto at_client =
      client_session.receive(server_session.send(*at_server, rng));
  if (!at_client || *at_client != ping) return {};
  outcome.ok = true;
  return outcome;
}

}  // namespace

void fold_service_stats(const service::StatsSnapshot& s, DriverReport& report) {
  report.service_requests = s.requests;
  report.batches = s.batches;
  report.lanes_signed = s.lanes_signed;
  report.padded_lanes = s.padded_lanes;
  report.single_ops = s.single_ops;
  report.batch_lane_occupancy = s.mean_lane_occupancy;
}

DriverReport run_handshakes(const rsa::Engine& server_engine,
                            const DriverConfig& cfg) {
  if (cfg.frontend == Frontend::kEvent) {
    return async::run_event_handshakes(server_engine, cfg);
  }
  if (cfg.frontend == Frontend::kSocket) {
    return async::run_socket_handshakes(server_engine, cfg);
  }
  if (!server_engine.has_private()) {
    throw std::invalid_argument("run_handshakes: server engine needs a key");
  }
  if (cfg.resumption_ratio < 0.0 || cfg.resumption_ratio > 1.0) {
    throw std::invalid_argument("run_handshakes: bad resumption_ratio");
  }
  // Client-side public engine built once (clients pin the server key).
  const rsa::Engine client_engine(server_engine.pub(),
                                  server_engine.options());
  SessionCache cache(SessionCacheConfig{.capacity = cfg.cache_capacity,
                                        .shards = cfg.cache_shards});

  // The batched-decrypt service is shared by every connection, exactly as
  // a terminator would share it: that sharing is what lets concurrent
  // on_key_exchange calls land in the same 16-lane batch.
  std::unique_ptr<BatchDecryptService> batch_svc;
  if (cfg.batch_private_ops) {
    batch_svc = std::make_unique<BatchDecryptService>(
        server_engine.priv(),
        BatchDecryptConfig{
            .dispatch_threads = cfg.batch_dispatch_threads,
            .max_linger = cfg.batch_linger,
            .max_batch_lanes = cfg.batch_max_lanes,
            .digit_bits = server_engine.options().digit_bits,
            .backend = cfg.batch_backend,
        });
  }

  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> resumed{0};

  util::ThreadPool pool(cfg.num_threads);
  util::Stopwatch wall;

  // Each worker slot gets an independent RNG stream, its own resumable
  // session handle, and its own latency buffer. The buffers are merged
  // after the pool drains — the previous design pushed every sample
  // through one global mutex, which at high thread counts serialized the
  // very handshake path the measurement was trying to observe.
  const std::size_t slots = pool.size();
  std::vector<util::Rng> rngs;
  rngs.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    rngs.emplace_back(cfg.seed * 0x9e3779b97f4a7c15ULL + s + 1);
  }
  std::vector<std::optional<ResumableSession>> sessions(slots);
  std::vector<std::vector<double>> slot_latencies(slots);
  std::atomic<std::size_t> next_slot{0};

  const std::uint64_t resume_threshold =
      static_cast<std::uint64_t>(cfg.resumption_ratio * 4294967296.0);

  pool.parallel_for(cfg.num_handshakes, [&](std::size_t lo, std::size_t hi) {
    // One chunk = one slot: chunks never outnumber pool.size() == slots, so
    // each running chunk owns its RNG stream, session handle, and latency
    // buffer exclusively — no lock anywhere on the measurement path.
    const std::size_t slot = next_slot++ % slots;
    util::Rng& rng = rngs[slot];
    std::vector<double>& lats = slot_latencies[slot];
    lats.reserve(hi - lo);

    for (std::size_t i = lo; i < hi; ++i) {
      const bool try_resume = sessions[slot].has_value() &&
                              rng.next_u32() < resume_threshold;
      util::Stopwatch sw;
      const std::uint64_t arrival_abs =
          PHISSL_OBS_WORKLOAD_ENABLED ? util::now_ns() : 0;
      const HandshakeOutcome outcome =
          one_handshake(server_engine, client_engine, cache, rng,
                        sessions[slot], try_resume, batch_svc.get());
      const double us = static_cast<double>(sw.elapsed_ns()) * 1e-3;
      if (outcome.ok) {
        completed++;
        if (outcome.resumed) resumed++;
      } else {
        failed++;
      }
      if (PHISSL_OBS_WORKLOAD_ENABLED && outcome.ok) {
        // Resumptions always record here (the private op was AVOIDED, so
        // no lower layer sees them). Scalar-path private ops record here
        // too; batched ones are already recorded per lane by SignService,
        // so skip them to keep the trace one-event-per-op.
        obs::WorkloadRecorder& rec = obs::WorkloadRecorder::global();
        obs::WorkloadEvent ev;
        ev.arrival_ns = rec.rel_ns(arrival_abs);
        ev.key_bits =
            static_cast<std::uint32_t>(server_engine.pub().byte_size() * 8);
        ev.op = obs::WorkloadOp::kPrivateOp;
        if (outcome.resumed) {
          ev.resumed = true;
          rec.record(ev);
        } else if (!batch_svc) {
          rec.record(ev);  // scalar CRT path: batch_id 0, lanes 0
        }
      }
      lats.push_back(us);
    }
  });

  DriverReport report;
  report.wall_seconds = wall.elapsed_s();
  report.completed = completed.load();
  report.failed = failed.load();
  report.resumed = resumed.load();
  report.handshakes_per_s =
      report.wall_seconds > 0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;
  std::vector<double> latencies_us;
  latencies_us.reserve(cfg.num_handshakes);
  for (auto& slot : slot_latencies) {
    latencies_us.insert(latencies_us.end(), slot.begin(), slot.end());
  }
  report.latency_us = util::summarize(std::move(latencies_us));

  const SessionCacheStats cs = cache.stats();
  report.cache_hits = cs.hits;
  report.cache_misses = cs.misses;
  report.cache_evictions = cs.evictions;
  if (batch_svc) {
    const service::StatsSnapshot ss = batch_svc->stats();
    fold_service_stats(ss, report);
  }
  return report;
}

}  // namespace phissl::ssl
