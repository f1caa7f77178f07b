// E10: SSL handshake throughput. Full RSA-key-transport handshakes for the
// three systems across key sizes — the end-to-end workload the paper's
// introduction motivates (handshake throughput limited by RSA private ops).
//
// Usage:
//   ./bench_handshake [--smoke] [--json [path]] [--frontend event|socket|all]
//                     [--backend knc_vec|ifma52|ifma52-portable]
//                     [--trace [path]] [--metrics [path]] [--workload [path]]
//
// Every row runs the reactor terminator (ssl/async/). The event sweep
// (connections x reactor workers) measures the batched decrypter: parked
// connections, not blocked threads, fill the 16-lane batches, so lane
// occupancy saturates from a handful of workers. Its smallest connection
// count also runs a scalar row per worker count (batch_private_ops off:
// each private op resolved inline on its worker), so scalar-vs-batched is
// an A/B inside one process. Extra rows inject overload (admission cap,
// expect nonzero shed with bounded p99), a resumption mix, and a DHE mix.
//
// The three-system table (a) and the resumption-ratio sweep are the
// paper's scalar baselines: batch_private_ops off with one open
// connection per worker, so each worker runs one handshake at a time.
//
// --smoke shrinks everything to a seconds-long CI run (512-bit key, small
// counts, the three-system tables skipped) while keeping every code path
// exercised. --frontend selects the sweeps (default event; socket adds
// the loopback-socket sweep). The obs export flags (src/obs/export.hpp)
// capture the run; --workload in particular records the driver's
// shed/resumed/dhe_sign tagging (obs/workload.hpp).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "baseline/systems.hpp"
#include "bench/harness.hpp"
#include "dh/dh.hpp"
#include "obs/export.hpp"
#include "ssl/dhe_handshake.hpp"
#include "ssl/handshake.hpp"
#include "util/random.hpp"
#include "phisim/core_model.hpp"
#include "rsa/key.hpp"
#include "ssl/driver.hpp"

namespace {

// The paper's scalar baseline on the reactor: every private op resolved
// inline, and one open connection per worker, so each worker runs one
// handshake at a time.
phissl::ssl::DriverConfig scalar_config(std::size_t handshakes,
                                        std::size_t workers) {
  phissl::ssl::DriverConfig cfg;
  cfg.num_handshakes = handshakes;
  cfg.event_workers = workers;
  cfg.max_open_connections = workers;
  cfg.batch_private_ops = false;
  return cfg;
}

// One event-sweep cell: runs the reactor over the simulated transport and
// reports one row. `batched` picks the decrypter.
void event_cell(phissl::bench::JsonReporter& json,
                const phissl::rsa::Engine& engine, std::size_t conns,
                std::size_t workers, double ratio, double dhe_ratio,
                std::size_t max_pending, phissl::rsa::Backend batch_backend,
                bool batched = true) {
  using namespace phissl;
  ssl::DriverConfig cfg;
  cfg.frontend = ssl::Frontend::kEvent;
  cfg.batch_private_ops = batched;
  cfg.num_handshakes = conns;
  cfg.event_workers = workers;
  // Slot table bound: everything up to 16k connections runs fully open;
  // beyond that, further connections start as slots free up.
  cfg.max_open_connections = std::min<std::size_t>(conns, 16384);
  if (ratio > 0.0) {
    // Resumption needs churn: a full handshake must complete and bank its
    // session before a later connection with the same identity opens. With
    // every connection open up front nothing can ever resume, so the resume
    // cell runs with a window well below the run length.
    cfg.max_open_connections = std::max<std::size_t>(workers * 16, conns / 8);
  }
  cfg.resumption_ratio = ratio;
  cfg.event_dhe_ratio = dhe_ratio;
  cfg.admission.max_pending_ops = max_pending;
  cfg.batch_backend = batch_backend;
  const ssl::DriverReport r = ssl::run_handshakes(engine, cfg);

  char name[96];
  std::snprintf(name, sizeof(name), "event_c%zu_w%zu%s%s%s%s", conns, workers,
                max_pending != 0 ? "_overload" : "",
                ratio > 0.0 ? "_resume" : "", dhe_ratio > 0.0 ? "_dhe" : "",
                batched ? "" : "_scalar");
  std::printf("%-7s %7zu %3zu %10.1f %9.0f %9.0f %6.2f %7zu %6.1f %7zu/%zu\n",
              batched ? "batched" : "scalar", conns, workers,
              r.handshakes_per_s, r.latency_us.median, r.latency_us.p99,
              r.batch_lane_occupancy, r.shed, r.resumptions_per_wakeup,
              r.completed, conns);
  if (r.failed != 0) std::printf("  (FAILED %zu)\n", r.failed);
  json.add_row("event_sweep", name,
               {{"connections", static_cast<double>(conns)},
                {"workers", static_cast<double>(workers)},
                {"batched", batched ? 1.0 : 0.0},
                {"resumption_ratio", ratio},
                {"dhe_ratio", dhe_ratio},
                {"max_pending_ops", static_cast<double>(max_pending)},
                {"hs_per_s", r.handshakes_per_s},
                {"p50_us", r.latency_us.median},
                {"p99_us", r.latency_us.p99},
                {"completed", static_cast<double>(r.completed)},
                {"failed", static_cast<double>(r.failed)},
                {"shed", static_cast<double>(r.shed)},
                {"resumed", static_cast<double>(r.resumed)},
                {"batches", static_cast<double>(r.batches)},
                {"single_ops", static_cast<double>(r.single_ops)},
                {"lane_occupancy", r.batch_lane_occupancy},
                {"resumptions_per_wakeup", r.resumptions_per_wakeup}});
}

// One socket-sweep cell: the same reactor, but over real loopback sockets
// with the in-process epoll client fleet supplying the load. Occupancy
// parity with the simulated event sweep is the acceptance bar — kernel
// byte-shuffling must not drain the batches.
void socket_cell(phissl::bench::JsonReporter& json,
                 const phissl::rsa::Engine& engine, std::size_t conns,
                 std::size_t workers, double ratio, std::size_t max_pending,
                 phissl::rsa::Backend batch_backend) {
  using namespace phissl;
  ssl::DriverConfig cfg;
  cfg.frontend = ssl::Frontend::kSocket;
  cfg.num_handshakes = conns;
  cfg.event_workers = workers;
  cfg.max_open_connections = std::min<std::size_t>(conns, 16384);
  cfg.socket_clients = std::min<std::size_t>(conns, 512);
  if (ratio > 0.0) {
    cfg.max_open_connections = std::max<std::size_t>(workers * 16, conns / 8);
    cfg.socket_clients =
        std::min(cfg.socket_clients, cfg.max_open_connections);
  }
  cfg.resumption_ratio = ratio;
  cfg.admission.max_pending_ops = max_pending;
  cfg.batch_backend = batch_backend;
  const ssl::DriverReport r = ssl::run_handshakes(engine, cfg);

  char name[96];
  std::snprintf(name, sizeof(name), "socket_c%zu_w%zu%s%s", conns, workers,
                max_pending != 0 ? "_overload" : "",
                ratio > 0.0 ? "_resume" : "");
  std::printf(
      "%7zu %3zu %10.1f %9.0f %9.0f %6.2f %7zu %8zu %7zu/%zu %8llu %8llu "
      "%6llu %8llu\n",
      conns, workers, r.handshakes_per_s, r.latency_us.median,
      r.latency_us.p99, r.batch_lane_occupancy, r.shed, r.eagain, r.completed,
      conns, static_cast<unsigned long long>(r.io_wakeups),
      static_cast<unsigned long long>(r.io_events),
      static_cast<unsigned long long>(r.interest_changes),
      static_cast<unsigned long long>(r.handoffs));
  if (r.failed != 0) std::printf("  (FAILED %zu)\n", r.failed);
  json.add_row("socket_sweep", name,
               {{"connections", static_cast<double>(conns)},
                {"workers", static_cast<double>(workers)},
                {"resumption_ratio", ratio},
                {"max_pending_ops", static_cast<double>(max_pending)},
                {"hs_per_s", r.handshakes_per_s},
                {"p50_us", r.latency_us.median},
                {"p99_us", r.latency_us.p99},
                {"completed", static_cast<double>(r.completed)},
                {"failed", static_cast<double>(r.failed)},
                {"shed", static_cast<double>(r.shed)},
                {"resumed", static_cast<double>(r.resumed)},
                {"batches", static_cast<double>(r.batches)},
                {"single_ops", static_cast<double>(r.single_ops)},
                {"lane_occupancy", r.batch_lane_occupancy},
                {"resumptions_per_wakeup", r.resumptions_per_wakeup},
                {"accepts", static_cast<double>(r.accepts)},
                {"eagain", static_cast<double>(r.eagain)},
                {"resets", static_cast<double>(r.resets)},
                {"io_wakeups", static_cast<double>(r.io_wakeups)},
                {"io_events", static_cast<double>(r.io_events)},
                {"interest_changes", static_cast<double>(r.interest_changes)},
                {"handoffs", static_cast<double>(r.handoffs)}});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phissl;

  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bench::FrontendChoice frontends =
      bench::frontend_from_args(argc, argv);
  // --backend pins the sweeps' Montgomery backend: both the server
  // engine's scalar kernel and the batched-decrypt contexts, so scalar
  // and batched rows stay an apples-to-apples A/B.
  const rsa::Backend backend = bench::batch_backend_from_args(argc, argv);
  auto json = bench::JsonReporter::from_args("bench_handshake", argc, argv);
  auto obs_out = obs::ExportConfig::from_args(argc, argv);

  bench::print_header("E10 bench_handshake",
                      "SSL handshake throughput, three systems");

  const std::size_t sweep_bits = smoke ? 512 : 2048;
  rsa::EngineOptions sweep_opts =
      baseline::options_for(baseline::System::kPhiOpenSSL);
  sweep_opts.kernel = backend;
  const rsa::Engine sweep_engine(rsa::test_key(sweep_bits), sweep_opts);

  // --- Event sweep: connections x reactor workers. Occupancy here is
  // decoupled from the worker count — the acceptance target is >= 0.9
  // from <= 4 workers at >= 1k connections, where a thread-per-connection
  // server needs >= 16 threads (one blocked thread per lane). The scalar
  // rows at the smallest connection count are the same geometry with the
  // inline decrypter.
  if (frontends.event) {
    std::printf("\n    event-frontend sweep, RSA-%zu, backend %s "
                "[hs/s | p50 us | p99 us | lane occ | shed | res/wakeup]\n",
                sweep_bits, rsa::to_string(backend));
    std::printf("%-7s %7s %3s %10s %9s %9s %6s %7s %6s %9s\n", "mode",
                "conns", "wrk", "hs/s", "p50_us", "p99_us", "occ", "shed",
                "r/w", "completed");
    const std::vector<std::size_t> event_conns =
        smoke ? std::vector<std::size_t>{64, 256}
              : std::vector<std::size_t>{1024, 4096, 16384};
    const std::vector<std::size_t> event_workers =
        smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4, 8};
    for (const std::size_t workers : event_workers) {
      event_cell(json, sweep_engine, event_conns.front(), workers,
                 /*ratio=*/0.0, /*dhe_ratio=*/0.0, /*max_pending=*/0, backend,
                 /*batched=*/false);
    }
    for (const std::size_t conns : event_conns) {
      for (const std::size_t workers : event_workers) {
        event_cell(json, sweep_engine, conns, workers, /*ratio=*/0.0,
                   /*dhe_ratio=*/0.0, /*max_pending=*/0, backend);
      }
    }
    if (!smoke) {
      // 64k connections through 16k slots: the memory-bounded regime.
      event_cell(json, sweep_engine, 65536, 4, 0.0, 0.0, 0, backend);
    }
    // Overload injection: the admission cap forces shedding; the row's
    // point is that p99 stays bounded while shed goes nonzero, instead of
    // the queue (and tail latency) diverging.
    event_cell(json, sweep_engine, smoke ? 256 : 4096, smoke ? 2 : 4, 0.0,
               0.0, /*max_pending=*/smoke ? 8 : 48, backend);
    // Mixed workloads: resumption (abbreviated handshakes interleave with
    // full ones) and DHE (signature ops share batches with decryptions).
    event_cell(json, sweep_engine, smoke ? 64 : 4096, smoke ? 2 : 4,
               /*ratio=*/0.5, 0.0, 0, backend);
    event_cell(json, sweep_engine, smoke ? 64 : 1024, smoke ? 2 : 4, 0.0,
               /*dhe_ratio=*/0.3, 0, backend);
  }

  // --- Socket sweep: the same reactor behind real epoll loopback sockets
  // (Frontend::kSocket). The comparison row for each cell is the
  // simulated event row at the same geometry: occupancy within a few
  // percent means the kernel transport isn't draining the batches.
  if (frontends.socket) {
    std::printf("\n    socket-frontend sweep, RSA-%zu, backend %s "
                "[hs/s | p50 us | p99 us | lane occ | shed | eagain | "
                "epoll wakeups | events | EPOLL_CTL_MODs | hand-offs]\n",
                sweep_bits, rsa::to_string(backend));
    std::printf("%7s %3s %10s %9s %9s %6s %7s %8s %9s %8s %8s %6s %8s\n",
                "conns", "wrk", "hs/s", "p50_us", "p99_us", "occ", "shed",
                "eagain", "completed", "wakeups", "events", "mods",
                "handoffs");
    const std::vector<std::size_t> socket_conns =
        smoke ? std::vector<std::size_t>{64} : std::vector<std::size_t>{1024};
    const std::vector<std::size_t> socket_workers =
        smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
    for (const std::size_t conns : socket_conns) {
      for (const std::size_t workers : socket_workers) {
        socket_cell(json, sweep_engine, conns, workers, /*ratio=*/0.0,
                    /*max_pending=*/0, backend);
      }
    }
    // Overload + resumption rows, mirroring the event sweep's.
    socket_cell(json, sweep_engine, smoke ? 64 : 1024, 2, 0.0,
                /*max_pending=*/smoke ? 8 : 48, backend);
    socket_cell(json, sweep_engine, smoke ? 64 : 1024, 2, /*ratio=*/0.5, 0,
                backend);
  }

  if (!smoke && frontends.event) {
    std::printf("\n(a) measured on this host [handshakes/s | p50 latency us], "
                "scalar, 2 reactor workers, one connection each\n");
    std::printf("%8s", "bits");
    for (const auto s : baseline::all_systems()) {
      std::printf(" %24s", baseline::name(s));
    }
    std::printf("\n");
    for (const std::size_t bits : {1024u, 2048u}) {
      const rsa::PrivateKey& key = rsa::test_key(bits);
      std::printf("%8zu", bits);
      for (const auto s : baseline::all_systems()) {
        const rsa::Engine engine = baseline::make_engine(s, key);
        const auto r = ssl::run_handshakes(
            engine, scalar_config(bits >= 2048 ? 12 : 24, 2));
        std::printf(" %12.1f | %9.0f", r.handshakes_per_s, r.latency_us.median);
        if (r.failed != 0) std::printf("(FAILED %zu)", r.failed);
      }
      std::printf("\n");
    }

    // DHE-RSA (forward secrecy): server cost = RSA sign + 2 DH exps.
    // Single-threaded latency comparison against plain RSA key transport.
    std::printf("\n    key-exchange comparison, RSA-2048 cert, host-measured "
                "[median handshake ms]\n");
    std::printf("%-18s %14s %20s\n", "system", "RSA transport",
                "DHE-RSA (1024 grp)");
    {
      const rsa::PrivateKey& key = rsa::test_key(2048);
      for (const auto s : baseline::all_systems()) {
        const rsa::Engine server_engine = baseline::make_engine(s, key);
        const rsa::Engine client_engine(key.pub, server_engine.options());
        const dh::Dh group(dh::rfc2409_group2(),
                           baseline::options_for(s).kernel);
        util::Rng rng(9);

        const double rsa_ms =
            bench::time_op_ms(
                [&] {
                  ssl::ServerHandshake server(server_engine, rng);
                  ssl::ClientHandshake client(client_engine, rng);
                  const auto flight = server.on_client_hello(client.start());
                  const auto kex = client.on_server_hello(
                      flight.value().hello, *flight.value().certificate);
                  const auto fin = server.on_key_exchange(kex.value().first,
                                                          kex.value().second);
                  (void)client.on_server_finished(fin.value());
                },
                3, 0.2, 60)
                .median;
        const double dhe_ms =
            bench::time_op_ms(
                [&] {
                  ssl::DheServerHandshake server(server_engine, group, rng);
                  ssl::DheClientHandshake client(client_engine, rng);
                  const auto flight = server.on_client_hello(client.start());
                  const auto kex = client.on_server_flight(
                      flight.value().hello, flight.value().certificate,
                      flight.value().key_exchange);
                  const auto fin = server.on_key_exchange(kex.value().first,
                                                          kex.value().second);
                  (void)client.on_server_finished(fin.value());
                },
                3, 0.2, 60)
                .median;
        std::printf("%-18s %14.2f %20.2f\n", baseline::name(s), rsa_ms,
                    dhe_ms);
      }
    }

    // Session-resumption sweep: abbreviated handshakes skip the RSA private
    // op entirely, so throughput rises steeply with the resumption ratio —
    // and the advantage of a faster private op shrinks, which bounds how
    // much PhiOpenSSL can help a resumption-heavy terminator. Each client
    // identity's first visit (identity_pool_for(24) = 3 of them) cannot
    // resume, so even ratio 1.0 tops out below 24.
    std::printf("\n    resumption-ratio sweep, RSA-2048, PhiOpenSSL, scalar, "
                "2 reactor workers [hs/s | resumed/completed]\n");
    std::printf("%8s %14s %12s\n", "ratio", "hs/s", "resumed");
    {
      const rsa::Engine engine = baseline::make_engine(
          baseline::System::kPhiOpenSSL, rsa::test_key(2048));
      for (const double ratio : {0.0, 0.5, 0.9, 1.0}) {
        ssl::DriverConfig cfg = scalar_config(24, 2);
        cfg.resumption_ratio = ratio;
        const auto r = ssl::run_handshakes(engine, cfg);
        std::printf("%8.2f %14.1f %9zu/%zu\n", ratio, r.handshakes_per_s,
                    r.resumed, r.completed);
      }
    }

    // The handshake is one private op plus one public op plus hashing; the
    // KNC projection uses the private-op profile (dominant term) at full
    // chip occupancy.
    std::printf("\n(b) simulated KNC chip at 240 threads "
                "[handshakes/s, private-op bound]\n");
    std::printf("%8s", "bits");
    for (const auto s : baseline::all_systems()) {
      std::printf(" %18s", baseline::name(s));
    }
    std::printf("\n");
    const phisim::ChipModel chip;
    for (const std::size_t bits : {1024u, 2048u, 4096u}) {
      std::printf("%8zu", bits);
      for (const auto s : baseline::all_systems()) {
        const auto priv =
            phisim::profile_rsa_private(bits, baseline::options_for(s));
        std::printf(" %18.1f", chip.throughput_ops_s(priv, 240));
      }
      std::printf("\n");
    }
  }

  const bool wrote_obs = obs_out.write();
  return json.write() && wrote_obs ? 0 : 1;
}
