// phissl_e2e_client: single-thread load generator for the end-to-end
// benchmark, run as its own process against phissl_e2e_server.
//
//   phissl_e2e_client --port P --conns N --seed S [--rate R]
//                     [--resume X] [--dhe X] [--warmup K] [--trace FILE]
//                     [--deadline-s T]
//   phissl_e2e_client --conns 0          (set-up only: prints setup_s)
//
// One epoll loop drives every connection through ssl::async::ScriptedClient,
// which verifies the server Finished and the echoed ping; a connection
// counts as completed only when both verified and its close was sent.
//
//   open loop   (--rate R): Poisson arrivals drawn from --seed.
//   closed loop (no --rate): 64 connections; a new one is due the moment a
//                            slot frees.
//
// Latency runs from each connection's DUE time, not from when the socket
// opened, so a generator stall is charged to every request it delays; how
// late each connection actually opened is reported separately (lag). p50
// and p99 are taken over every completed connection of the timed phase.
// Both modes cap connections in flight at 64; an open-loop arrival that
// finds the cap reached waits, and is counted in cap_delayed (and shows as
// lag).
//
// --warmup K makes the first K connections of the same arrival process
// untimed, so the timed N start with lazy set-up done, batches flowing and
// every client identity holding a session to offer. Resumption offers cycle
// through 256 identities; an identity's first offer, before it has a
// session, is a full handshake. The server must be told to serve N + K
// connections.
//
// With --trace FILE, every connection gets one span from due to close,
// keyed by its index, with child spans for connect and for each phase: a
// phase runs from the client's k-th write to the next bytes the server
// sends (hello, kex, echo; resumed handshakes have no kex). Spans are kept
// in memory and written as Chrome trace JSON at exit.
//
// The last line of stdout is one JSON object with the run's counts and
// timings. Exit 0 unless arguments or setup fail.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "ssl/async/connection.hpp"
#include "ssl/async/transport.hpp"
#include "ssl/handshake.hpp"

namespace {

using namespace phissl;
using ssl::async::detail::coin;
using ssl::async::detail::mix;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxInflight = 64;
constexpr std::size_t kIdentities = 256;  // client identities offering resumption
constexpr std::size_t kMaxWrites = 4;  // hello, kex, echo, close
// Connections take their source address round-robin from 127.0.1.1 up.
// The client closes first, so each connection leaves a TIME_WAIT socket
// holding its (source, port, server) tuple for 60 s. From one source
// address, once about half the ephemeral ports are held, connect() scans
// for a free one and blocks this thread for ~4 ms at a time, which shows
// up as generator lag and in the latency tail. 64 addresses keep every
// run far below that.
constexpr std::uint32_t kSourceBase = 0x7f000101;  // 127.0.1.1
constexpr std::size_t kSources = 64;

struct Options {
  std::uint16_t port = 0;
  std::size_t conns = 0;
  std::uint64_t seed = 1;
  double rate = 0.0;
  double resume = 0.0;
  double dhe = 0.0;
  std::size_t warmup = 0;
  std::string trace;
  double deadline_s = 150.0;
};

/// What the run keeps per connection index (ns relative to the run start).
struct Record {
  std::int64_t due = 0;
  std::int64_t open = -1;
  std::int64_t connected = -1;
  std::int64_t close = -1;
  std::array<std::int64_t, kMaxWrites> write{};
  std::array<std::int64_t, kMaxWrites> reply{};
  std::uint8_t writes = 0;
  std::uint8_t replies = 0;
  std::uint16_t slot = 0;
  bool dhe = false;
  bool resumed = false;
  bool completed = false;
};

/// One in-flight connection.
struct Slot {
  std::optional<ssl::async::ScriptedClient> client;
  int fd = -1;
  std::size_t idx = 0;
  bool connecting = true;
  bool want_out = true;
  std::vector<std::uint8_t> stash;
  std::size_t stash_off = 0;
};

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the ceil(q*n)-th smallest sample.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

class LoadGen {
 public:
  LoadGen(const Options& opt, const rsa::Engine& engine, double setup_s)
      : opt_(opt),
        engine_(engine),
        setup_s_(setup_s),
        records_(opt.warmup + opt.conns),
        slots_(kMaxInflight),
        identities_(kIdentities),
        arrivals_(mix(opt.seed ^ 0xa881'4a11ULL)),
        gap_s_(opt.rate > 0.0 ? opt.rate : 1.0),
        deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         opt.deadline_s))),
        open_loop_(opt.rate > 0.0) {
    for (std::size_t i = kMaxInflight; i-- > 0;) free_.push_back(i);
    addr_.sin_family = AF_INET;
    addr_.sin_port = htons(opt.port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr_.sin_addr);
  }

  int run();

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  void drive();
  void admit();
  void open_next(std::int64_t due);
  void pump(std::size_t slot);
  void teardown(std::size_t slot, bool completed);
  void set_interest(std::size_t slot, bool want_out);
  void print_result(double wall_s) const;
  bool write_trace() const;

  const Options& opt_;
  const rsa::Engine& engine_;
  const double setup_s_;
  // Indices [0, warmup) are the untimed warm-up; the timed connections
  // follow, and their index minus warmup is the request id. Due times are
  // ns since t0_, when the first warm-up connection is due.
  std::vector<Record> records_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_;
  std::vector<std::optional<ssl::ResumableSession>> identities_;
  std::mt19937_64 arrivals_;
  std::exponential_distribution<double> gap_s_;
  const Clock::time_point deadline_;
  sockaddr_in addr_{};
  const bool open_loop_;
  int ep_ = -1;
  Clock::time_point t0_{};

  std::int64_t next_due_ = 0;  // open loop: due time of index opened_
  bool capped_ = false;
  Clock::duration idle_{};  // polls that found nothing to do
  std::deque<std::int64_t> freed_at_;  // closed loop: when slots freed

  std::size_t opened_ = 0;
  std::size_t settled_ = 0;
  std::size_t inflight_ = 0;
  std::size_t max_inflight_ = 0;
  std::size_t cap_delayed_ = 0;
};

void LoadGen::set_interest(std::size_t slot, bool want_out) {
  Slot& s = slots_[slot];
  if (s.want_out == want_out) return;
  s.want_out = want_out;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (want_out ? EPOLLOUT : 0u);
  ev.data.u64 = slot;
  ::epoll_ctl(ep_, EPOLL_CTL_MOD, s.fd, &ev);
}

void LoadGen::teardown(std::size_t slot, bool completed) {
  Slot& s = slots_[slot];
  Record& r = records_[s.idx];
  r.close = now_ns();
  r.completed = completed;
  if (completed) {
    r.resumed = s.client->resumed();
    if (!r.resumed && s.client->has_resumable()) {
      identities_[s.idx % identities_.size()] = s.client->resumable();
    }
  }
  ::close(s.fd);
  s.fd = -1;
  s.client.reset();
  s.stash.clear();
  s.stash_off = 0;
  ++settled_;
  --inflight_;
  free_.push_back(slot);
  if (!open_loop_) freed_at_.push_back(r.close);
}

void LoadGen::open_next(std::int64_t due) {
  const std::size_t slot = free_.back();
  free_.pop_back();
  const std::size_t idx = opened_++;
  ++inflight_;
  if (idx >= opt_.warmup) max_inflight_ = std::max(max_inflight_, inflight_);
  Record& r = records_[idx];
  r.due = due;
  r.open = now_ns();
  r.slot = static_cast<std::uint16_t>(slot);
  r.dhe = coin(opt_.seed, idx, 0xd4e5, opt_.dhe);
  std::optional<ssl::ResumableSession> resume;
  if (!r.dhe && coin(opt_.seed, idx, 0x5e55, opt_.resume)) {
    resume = identities_[idx % identities_.size()];  // nullopt while cold
  }

  Slot& s = slots_[slot];
  s.idx = idx;
  s.connecting = true;
  s.want_out = true;
  s.client.emplace(engine_, mix(opt_.seed ^ mix(idx + 1)), std::move(resume),
                   r.dhe);
  s.client->start();
  s.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (s.fd < 0) {
    teardown(slot, false);
    return;
  }
  int one = 1;
  ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // The port is still picked by connect(), against the full 4-tuple.
  ::setsockopt(s.fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof(one));
  sockaddr_in src{};
  src.sin_family = AF_INET;
  src.sin_addr.s_addr =
      htonl(kSourceBase + static_cast<std::uint32_t>(idx % kSources));
  if (::bind(s.fd, reinterpret_cast<const sockaddr*>(&src), sizeof(src)) != 0) {
    teardown(slot, false);
    return;
  }
  if (::connect(s.fd, reinterpret_cast<const sockaddr*>(&addr_),
                sizeof(addr_)) == 0) {
    s.connecting = false;
    r.connected = now_ns();
  } else if (errno != EINPROGRESS) {
    teardown(slot, false);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP;
  ev.data.u64 = slot;
  ::epoll_ctl(ep_, EPOLL_CTL_ADD, s.fd, &ev);
}

// Opens every connection that is due. Runs after each event, so one slow
// event delays arrivals by at most its own processing time.
void LoadGen::admit() {
  if (!open_loop_) {
    // Closed loop: each freed slot is due the moment it freed.
    while (opened_ < records_.size() && inflight_ < kMaxInflight) {
      std::int64_t due = 0;
      if (!freed_at_.empty()) {
        due = freed_at_.front();
        freed_at_.pop_front();
      }
      open_next(due);
    }
    return;
  }
  const std::int64_t now = now_ns();
  while (opened_ < records_.size() && next_due_ <= now) {
    if (inflight_ >= kMaxInflight) {
      capped_ = true;
      return;
    }
    // Everything due by the time the cap released was held back by it.
    if (capped_ && opened_ >= opt_.warmup) ++cap_delayed_;
    open_next(next_due_);
    next_due_ += static_cast<std::int64_t>(gap_s_(arrivals_) * 1e9);
  }
  capped_ = false;
}

void LoadGen::pump(std::size_t slot) {
  Slot& s = slots_[slot];
  if (s.fd < 0) return;  // stale event for a closed slot
  Record& r = records_[s.idx];
  if (s.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(s.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err == EINPROGRESS || err == EALREADY) return;
    if (err != 0) return teardown(slot, false);
    s.connecting = false;
    r.connected = now_ns();
  }

  std::array<std::uint8_t, 16 * 1024> buf;
  for (;;) {
    const ssize_t n = ::recv(s.fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      if (r.replies < r.writes) r.reply[r.replies++] = now_ns();
      s.client->on_server_bytes(std::span<const std::uint8_t>(
          buf.data(), static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      if (!s.client->done()) return teardown(slot, false);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return teardown(slot, false);
  }
  if (s.client->failed()) return teardown(slot, false);

  for (;;) {
    if (s.stash_off >= s.stash.size()) {
      s.stash.clear();
      s.stash_off = 0;
      if (s.client->output_pending() == 0) break;
      s.stash = s.client->take_output();
      if (r.writes < kMaxWrites) {
        // Server bytes answer the latest write only; an earlier write that
        // drew no reply keeps reply = 0 and yields no phase span.
        r.replies = r.writes;
        r.write[r.writes++] = now_ns();
      }
    }
    const ssize_t n = ::send(s.fd, s.stash.data() + s.stash_off,
                             s.stash.size() - s.stash_off, MSG_NOSIGNAL);
    if (n >= 0) {
      s.stash_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return teardown(slot, false);
  }
  const bool flushed =
      s.stash_off >= s.stash.size() && s.client->output_pending() == 0;
  if (s.client->done() && flushed) return teardown(slot, true);
  set_interest(slot, !flushed);
}

void LoadGen::drive() {
  std::array<epoll_event, 128> events;
  // The loop polls rather than sleeping in epoll_wait or on a timer: a
  // sleeping generator adds its own timer and wake-up latency, which on a
  // virtual machine varies with the host's load, to every connection.
  while (settled_ < records_.size()) {
    const Clock::time_point t = Clock::now();
    if (t >= deadline_) return;
    const std::size_t opened = opened_;
    admit();
    const int k = ::epoll_wait(ep_, events.data(),
                               static_cast<int>(events.size()), 0);
    if (k < 0 && errno != EINTR) return;
    if (k <= 0) {
      if (opened_ == opened) idle_ += Clock::now() - t;
      continue;
    }
    for (int i = 0; i < k; ++i) {
      pump(static_cast<std::size_t>(events[static_cast<std::size_t>(i)].data.u64));
      admit();
    }
  }
}

int LoadGen::run() {
  ep_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep_ < 0) {
    std::perror("phissl_e2e_client: epoll");
    return 1;
  }

  t0_ = Clock::now();
  drive();
  const double wall_s = static_cast<double>(now_ns()) * 1e-9;
  // Past the deadline: whatever is still open counts as failed.
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].fd >= 0) teardown(s, false);
  }
  ::close(ep_);
  if (!opt_.trace.empty() && !write_trace()) return 1;
  print_result(wall_s);
  return 0;
}

void LoadGen::print_result(double wall_s) const {
  const double idle_s = std::chrono::duration<double>(idle_).count();
  const std::size_t first = opt_.warmup;
  std::size_t warm = 0;
  std::size_t warm_resumed = 0;
  for (std::size_t i = 0; i < first; ++i) {
    if (records_[i].completed) ++warm;
    if (records_[i].resumed) ++warm_resumed;
  }
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::size_t completed = 0;
  std::size_t resumed = 0;
  std::size_t dhe = 0;
  std::int64_t last_close = 0;
  for (std::size_t i = first; i < opened_; ++i) {
    const Record& r = records_[i];
    lag_ms.push_back(static_cast<double>(r.open - r.due) * 1e-6);
    if (!r.completed) continue;
    ++completed;
    if (r.resumed) ++resumed;
    if (r.dhe) ++dhe;
    last_close = std::max(last_close, r.close);
    latency_ms.push_back(static_cast<double>(r.close - r.due) * 1e-6);
  }
  const std::size_t opened = opened_ > first ? opened_ - first : 0;
  const double span_s =
      opened > 0 ? static_cast<double>(last_close - records_[first].due) * 1e-9
                 : 0.0;
  std::printf(
      "{\"attempted\": %zu, \"opened\": %zu, \"completed\": %zu, "
      "\"failed\": %zu, \"never_opened\": %zu, \"warmup_completed\": %zu, "
      "\"warmup_resumed\": %zu, \"resumed\": %zu, \"dhe\": %zu, "
      "\"span_s\": %.6f, \"hs_per_s\": %.6f, "
      "\"p50_ms\": %.6f, \"p99_ms\": %.6f, "
      "\"lag_p99_ms\": %.6f, \"busy_frac\": %.6f, \"max_inflight\": %zu, "
      "\"cap_delayed\": %zu, \"setup_s\": %.6f}\n",
      opt_.conns, opened, completed, opened - completed, opt_.conns - opened,
      warm, warm_resumed, resumed, dhe, span_s,
      span_s > 0 ? static_cast<double>(completed) / span_s : 0.0,
      percentile(latency_ms, 0.50), percentile(latency_ms, 0.99),
      percentile(lag_ms, 0.99),
      wall_s > 0 ? 1.0 - idle_s / wall_s : 0.0, max_inflight_, cap_delayed_,
      setup_s_);
}

bool LoadGen::write_trace() const {
  std::FILE* f = std::fopen(opt_.trace.c_str(), "w");
  if (f == nullptr) {
    std::perror("phissl_e2e_client: trace file");
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  const auto span = [&](const char* name, const char* cat, std::size_t req,
                        std::uint16_t slot, std::int64_t b, std::int64_t e) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"req\": %zu}}",
                 first ? "" : ",\n", name, cat, static_cast<unsigned>(slot),
                 static_cast<double>(b) * 1e-3,
                 static_cast<double>(e - b) * 1e-3, req);
    first = false;
  };
  static constexpr std::array<const char*, 3> kFull{"hello", "kex", "echo"};
  static constexpr std::array<const char*, 2> kResumed{"hello", "echo"};
  for (std::size_t i = opt_.warmup; i < opened_; ++i) {
    const Record& r = records_[i];
    if (!r.completed) continue;
    const std::size_t req = i - opt_.warmup;
    const char* cat = r.resumed ? "resumed" : (r.dhe ? "dhe" : "full");
    span("conn", cat, req, r.slot, r.due, r.close);
    if (r.connected >= 0) {
      span("connect", cat, req, r.slot, r.open, r.connected);
    }
    const std::size_t phases = r.resumed ? kResumed.size() : kFull.size();
    for (std::size_t k = 0; k < phases && k < r.replies; ++k) {
      if (r.reply[k] < r.write[k]) continue;
      span(r.resumed ? kResumed[k] : kFull[k], cat, req, r.slot, r.write[k],
           r.reply[k]);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: phissl_e2e_client --port P --conns N --seed S "
               "[--rate R]\n"
               "                         [--resume X] [--dhe X] [--warmup K] "
               "[--trace FILE] [--deadline-s T]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--port") {
      opt.port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--conns") {
      opt.conns = std::strtoull(v, nullptr, 10);
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--rate") {
      opt.rate = std::strtod(v, nullptr);
    } else if (a == "--resume") {
      opt.resume = std::strtod(v, nullptr);
    } else if (a == "--dhe") {
      opt.dhe = std::strtod(v, nullptr);
    } else if (a == "--warmup") {
      opt.warmup = std::strtoull(v, nullptr, 10);
    } else if (a == "--trace") {
      opt.trace = v;
    } else if (a == "--deadline-s") {
      opt.deadline_s = std::strtod(v, nullptr);
    } else {
      return usage();
    }
  }
  // --conns 0 only measures set-up (run.py repeats it for setup_s).
  if (opt.conns > 0 && opt.port == 0) return usage();

  try {
    // Client set-up cost is part of the benchmark's setup_s: the test key
    // and a public-key engine on the same kernel as the server.
    const Clock::time_point s0 = Clock::now();
    const rsa::Engine engine(rsa::test_key(2048).pub,
                             rsa::EngineOptions{.kernel = rsa::Kernel::kIfma52});
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - s0).count();
    if (opt.conns == 0) {
      std::printf("{\"setup_s\": %.6f}\n", setup_s);
      return 0;
    }
    LoadGen gen(opt, engine, setup_s);
    return gen.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phissl_e2e_client: %s\n", e.what());
    return 1;
  }
}
