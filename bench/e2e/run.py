#!/usr/bin/env python3
"""Split-process end-to-end benchmark of the socket TLS terminator.

Builds phissl_e2e_server, phissl_e2e_client and phissl_e2e_layers from this
directory (cmake -S bench/e2e, output in .bench_build/e2e at the repository
root), runs server and client as separate processes pinned to disjoint
cores, checks every run for correctness and prints every metric as
`workload metric value unit`.

  python3 bench/e2e/run.py                      all workloads, untraced
  python3 bench/e2e/run.py --traced             plus a traced run of each,
                                                the layer probes, and the
                                                tracing overhead
  python3 bench/e2e/run.py --repeat 5 --out A.json
                                                five seeds per workload, for
                                                bench/e2e/compare.py
  python3 bench/e2e/run.py --smoke              every workload briefly,
                                                every check, no thresholds
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                one run; the last stdout
                                                line is a JSON result

Pinning (4 cores): server on cores 0-2, client and this script on core 3;
the layer probes run alone on core 0. Exit status is nonzero when
any correctness check fails; in suite mode also when a run is invalid
(generator late, busy or capped). A single --workload run reports its
validity on stderr and still prints its result line.
"""

import argparse
import functools
import json
import math
import os
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
TARGETS = ["phissl_e2e_server", "phissl_e2e_client", "phissl_e2e_layers"]

# Fixed order. Closed-loop length scales with --seconds at a nominal
# capacity, so a run lasts about --seconds on the reference host.
WORKLOADS = {
    "rsa_saturate": {"nominal_per_s": 1400, "resume": 0.0, "dhe": 0.0},
    "rsa_paced": {"rate": 800, "resume": 0.0, "dhe": 0.0},
    # One connection in 200 is a full handshake, enough to time the kex
    # phase; the dispatch thread is busy about a fifth of the time. With a
    # tenth of full handshakes it ran padded batches back to back, and two
    # thirds of the server CPU per handshake was that thread rather than
    # the resumption path.
    "resume_heavy": {"rate": 3000, "resume": 0.995, "dhe": 0.0},
    # Suite only, not in BENCHMARK.json. The client's own work per DHE
    # connection (group set-up and two 1024-bit exponentiations) is about
    # 1.7 ms in one event, so its lag limit is one such event plus margin
    # rather than the default.
    "dhe_mix": {"rate": 500, "resume": 0.0, "dhe": 0.5, "max_lag_ms": 2.5},
}

# Generator validity: beyond these the client, not the server, shapes the
# numbers.
MAX_LAG_P99_MS = 1.0  # unless the workload sets max_lag_ms
MAX_CLIENT_BUSY = 0.8  # share of the client's core spent handling events
MAX_CAP_DELAYED = 0.01  # share of arrivals held back by the in-flight cap
# Set-ups per run behind the setup_s median. One set-up of one side varies
# by ~20 % from the next; each costs 1-2 s, so more would crowd the runs.
SETUP_REPEATS = 5
# Untimed lead-in of every run, from the same arrival process: lazy set-up,
# the first batches and (on resume_heavy) each client identity's first, full
# handshake happen before timing starts.
WARMUP_S = 1.0


class BenchError(Exception):
    """A failure that means no result: build, launch or protocol."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Host, build, processes


def host_info():
    model, flags = "unknown", ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name") and model == "unknown":
                model = line.split(":", 1)[1].strip()
            elif line.startswith("flags") and not flags:
                flags = line.split(":", 1)[1]
    except OSError:
        pass
    return {
        "cpu_model": model,
        "avx512ifma": "avx512ifma" in flags.split(),
        "cpus": len(os.sched_getaffinity(0)),
    }


class Cores:
    """Core sets for each role; degrades by wrapping on smaller hosts.

    The server gets three cores: its dispatch thread keeps one busy at every
    offered load, and with only two the reactor workers and the poller
    time-share the other. In interleaved runs that widened the spread of
    p99 on rsa_paced (10% vs 3%) and of p50 with 90% resumption (25% vs 18%).
    The client shares core 3 with this script, which only waits."""

    def __init__(self):
        avail = sorted(os.sched_getaffinity(0))
        self.degraded = len(avail) < 4

        def pick(*idx):
            return {avail[i % len(avail)] for i in idx}

        self.server = pick(0, 1, 2)
        self.client = pick(3)
        self.runner = pick(3)
        self.layers = pick(0)


def build(bin_dir):
    """Configures and builds the programs; returns the binary directory."""
    if bin_dir is not None:
        return Path(bin_dir)
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return BUILD


def child_env():
    env = dict(os.environ)
    # The benchmark fixes the backend as data; a stray override would
    # silently measure something else.
    env.pop("PHISSL_FORCE_BACKEND", None)
    return env


class Procs:
    """Every child started here; stop_all() kills and reaps stragglers."""

    def __init__(self):
        self.live = []

    def spawn(self, argv, cores):
        p = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            env=child_env(),
            text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cores),
        )
        self.live.append(p)
        return p

    def finish(self, p, timeout):
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise BenchError(f"{Path(p.args[0]).name} did not finish in {timeout:.0f} s")
        finally:
            self.live.remove(p)
        if p.returncode != 0:
            raise BenchError(f"{Path(p.args[0]).name} exited {p.returncode}")
        return out

    def stop_all(self):
        for p in self.live:
            if p.poll() is None:
                p.kill()
            p.wait()
        self.live.clear()


def last_json(text, who):
    lines = [ln for ln in text.strip().splitlines() if ln.startswith("{")]
    if not lines:
        raise BenchError(f"{who} printed no result")
    return json.loads(lines[-1])


def start_server(procs, bins, cores, conns, dhe, seed):
    """Launches the server; returns (process, port, exec-to-listening s)."""
    t0 = time.perf_counter()
    p = procs.spawn(
        [str(bins / "phissl_e2e_server"), "--conns", str(conns), "--dhe", str(dhe),
         "--seed", str(seed)],
        cores.server,
    )
    ready, _, _ = select.select([p.stdout], [], [], 60)
    line = p.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    m = re.match(r"port (\d+)", line)
    if not m:
        raise BenchError("server did not report a listening port")
    return p, int(m.group(1)), setup


def measure_setup(procs, bins, cores, extra):
    """`extra` more set-ups of each side; returns (server list, client list)."""
    server, client = [], []
    for _ in range(extra):
        # Both sides at once, each on its own cores: in 16 interleaved
        # pairs, both medians read the same as one side at a time.
        c = procs.spawn([str(bins / "phissl_e2e_client"), "--conns", "0"], cores.client)
        s, _, s_setup = start_server(procs, bins, cores, 0, 0.0, 1)
        client.append(last_json(procs.finish(c, 60), "client")["setup_s"])
        procs.finish(s, 60)
        server.append(s_setup)
    return server, client


# --------------------------------------------------------------------------
# One workload run


def percentile(values, q):
    """Nearest rank, as the client computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(q * len(v)))) - 1]


def scrape_sums(text):
    """Sums each Prometheus sample name over all its label sets."""
    sums = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        sums[name] = sums.get(name, 0.0) + float(value)
    return sums


def phase_metrics(trace_path):
    """Per-phase percentiles and the root span's self time, from the
    client's Chrome trace (one root `conn` span per connection)."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    by_req = {}
    for ev in events:
        by_req.setdefault(ev["args"]["req"], []).append(ev)
    phases = {"connect": [], "hello": [], "kex": [], "echo": []}
    full_kex, self_ms = [], []
    for spans in by_req.values():
        root = next(e for e in spans if e["name"] == "conn")
        children = [e for e in spans if e["name"] != "conn"]
        self_ms.append((root["dur"] - sum(e["dur"] for e in children)) / 1e3)
        for e in children:
            phases[e["name"]].append(e["dur"] / 1e3)
            if e["name"] == "kex" and e["cat"] == "full":
                full_kex.append(e["dur"] / 1e3)
    out = {}
    for name, vals in phases.items():
        out[f"phase.{name}_p50_ms"] = percentile(vals, 0.50)
        out[f"phase.{name}_p99_ms"] = percentile(vals, 0.99)
    out["phase.conn_self_p50_ms"] = percentile(self_ms, 0.50)
    return out, (statistics.fmean(full_kex) if full_kex else 0.0)


def run_workload(name, seed, seconds, traced, bins, cores, setup_repeats, procs):
    w = WORKLOADS[name]
    per_s = w.get("rate", w.get("nominal_per_s"))
    conns = max(1, round(per_s * seconds))
    warmup = round(per_s * WARMUP_S)
    # Open loop at --rate; without it, closed loop over 64 connections.
    load = ["--rate", str(w["rate"])] if "rate" in w else []
    deadline = min(120.0, 3 * seconds + 20)

    server_setup, client_setup = measure_setup(procs, bins, cores, setup_repeats - 1)
    srv, port, s_setup = start_server(procs, bins, cores, conns + warmup, w["dhe"], seed)
    server_setup.append(s_setup)
    trace = bins / f"trace-{name}.json" if traced else None
    argv = [str(bins / "phissl_e2e_client"), "--port", str(port), "--conns", str(conns),
            "--seed", str(seed), *load, "--resume", str(w["resume"]), "--dhe", str(w["dhe"]),
            "--warmup", str(warmup), "--deadline-s", str(deadline)]
    if trace:
        argv += ["--trace", str(trace)]
    cli = procs.spawn(argv, cores.client)
    c = last_json(procs.finish(cli, deadline + 30), "client")
    s = last_json(procs.finish(srv, 30), "server")
    client_setup.append(c["setup_s"])

    completed = c["completed"]
    failed = c["failed"] + c["never_opened"]
    checks = {
        "client verified every connection": failed == 0 and completed == conns
        and c["warmup_completed"] == warmup,
        "server completed = client completed": s["completed"] == completed + warmup,
        "server saw no failure or shed": s["failed"] == 0 and s["shed"] == 0,
        "server resumed = client resumed": s["resumed"] == c["resumed"] + c["warmup_resumed"],
    }
    if w["resume"] > 0:
        checks["resumed share >= 0.85"] = completed > 0 and c["resumed"] / completed >= 0.85
    if w["dhe"] > 0:
        tol = max(0.02, 3 * math.sqrt(0.25 / max(1, completed)))
        share = c["dhe"] / completed if completed else 0.0
        checks[f"DHE share 0.50 +- {tol:.3f}"] = abs(share - w["dhe"]) <= tol

    invalid = []
    max_lag = w.get("max_lag_ms", MAX_LAG_P99_MS)
    if c["lag_p99_ms"] > max_lag:
        invalid.append(f"generator lag p99 {c['lag_p99_ms']:.3f} ms > {max_lag}")
    if c["busy_frac"] > MAX_CLIENT_BUSY:
        invalid.append(f"client busy {c['busy_frac']:.2f} > {MAX_CLIENT_BUSY}")
    if c["cap_delayed"] > MAX_CAP_DELAYED * conns:
        invalid.append(f"in-flight cap held back {c['cap_delayed']} arrivals")
    if cores.degraded:
        invalid.append("fewer than 4 cores: server and client share cores")

    e2e = {
        "hs_per_s": c["hs_per_s"],
        "server_cpu_ms_per_hs": 1e3 * s["cpu_s"] / max(1, s["completed"]),
        "fail_frac": failed / conns,
        "setup_s": statistics.median(server_setup) + statistics.median(client_setup),
        # Due -> close latency, printed with every run but not gated (it is
        # per-layer in BENCHMARK.json): between runs of one commit its
        # median spreads up to ~25 % and its tail more.
        "conn.p50_ms": c["p50_ms"],
        "conn.p99_ms": c["p99_ms"],
    }

    layers = {}
    if traced:
        sums = scrape_sums(s["prometheus"])
        batches = sums.get("phissl_service_batches_total", 0.0)
        lanes = 16 * batches
        busy_us = sums.get("phissl_service_batch_service_us_sum", 0.0) - sums.get(
            "phissl_pool_task_wait_us_sum", 0.0)
        qwait_n = sums.get("phissl_service_queue_wait_us_count", 0.0)
        lookups = s["cache_hits"] + s["cache_misses"]
        layers = {
            "service.occupancy": sums.get("phissl_service_lanes_signed_total", 0.0) / lanes
            if lanes else 0.0,
            "service.padded_lane_frac": sums.get("phissl_service_padded_lanes_total", 0.0) / lanes
            if lanes else 0.0,
            "service.batch_mean_us": busy_us / batches if batches else 0.0,
            "service.pool_wait_mean_us": sums.get("phissl_pool_task_wait_us_sum", 0.0) / batches
            if batches else 0.0,
            "service.queue_wait_mean_us": sums.get("phissl_service_queue_wait_us_sum", 0.0) / qwait_n
            if qwait_n else 0.0,
            # One dispatch thread, busy over the client's active span.
            "service.dispatch_busy_frac": busy_us / (1e6 * c["span_s"]) if c["span_s"] else 0.0,
            "ssl.cache_hit_frac": s["cache_hits"] / lookups if lookups else 0.0,
            "async.events_per_wakeup": s["resumptions_per_wakeup"],
            "async.eagain_per_conn": s["eagain"] / max(1, s["accepts"]),
            "async.shed_frac": s["shed"] / conns,
            "gen.lag_p99_ms": c["lag_p99_ms"],
            "gen.client_cpu_frac": c["busy_frac"],
            "gen.max_inflight": c["max_inflight"],
            "gen.cap_delayed_frac": c["cap_delayed"] / conns,
        }
        phases, kex_full_mean = phase_metrics(trace)
        layers.update(phases)
        # What the service accounts for in a full RSA kex: queue wait, then
        # the batch (its wait for the dispatch thread plus the kernel).
        service_ms = (layers["service.queue_wait_mean_us"] + layers["service.pool_wait_mean_us"]
                      + layers["service.batch_mean_us"]) / 1e3
        layers["phase.kex_residual_ms"] = kex_full_mean - service_ms if kex_full_mean else 0.0

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": conns,
        "failed": failed,
        "correct": all(checks.values()),
        "checks": checks,
        "invalid": invalid,
        "e2e": e2e,
        "layers": layers,
    }


def run_layers(procs, bins, cores, quick):
    argv = [str(bins / "phissl_e2e_layers")] + (["--quick"] if quick else [])
    return last_json(procs.finish(procs.spawn(argv, cores.layers), 120), "layers")


# --------------------------------------------------------------------------
# Reporting


@functools.cache
def spec():
    """BENCHMARK.json: the metric names and units this script must print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return [m["name"] for m in spec()[kind]]


def unit(name):
    for m in spec()["end_to_end"] + spec()["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    return "ratio"  # fail_frac and trace_overhead.*


def print_metrics(name, metrics):
    for k, v in metrics.items():
        value = repr(float(v)) if isinstance(v, float) else str(v)
        print(f"{name} {k} {value} {unit(k)}", flush=True)


def report_run(run, show_e2e=True):
    """Checks and validity to stderr, metrics to stdout."""
    for what, ok in run["checks"].items():
        if not ok:
            log(f"{run['workload']}: CHECK FAILED: {what}")
    for why in run["invalid"]:
        log(f"{run['workload']}: INVALID: {why}")
    if show_e2e:
        print_metrics(run["workload"], run["e2e"])
    if run["traced"]:
        print_metrics(run["workload"], run["layers"])


# --------------------------------------------------------------------------
# Modes


def single(args, bins, cores, procs):
    """One workload run in the result-line format."""
    traced = args.trace == 1
    run = run_workload(args.workload, args.seed, args.seconds, traced, bins, cores,
                       SETUP_REPEATS, procs)
    report_run(run)
    if traced:
        probes = run_layers(procs, bins, cores, quick=False)
        print_metrics(args.workload, probes)
        metrics, wanted = {**probes, **run["e2e"], **run["layers"]}, names("per_layer")
    else:
        metrics, wanted = run["e2e"], names("end_to_end")
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


def suite(args, bins, cores, procs, host):
    """Every workload in order; --repeat seeds each; --traced/--smoke add
    traced runs and the layer probes."""
    seconds = 1.5 if args.smoke else args.seconds
    traced_pass = args.traced or args.smoke
    runs = []
    printed = set()
    for name in WORKLOADS:
        for r in range(args.repeat):
            seed = args.seed + r
            if not args.smoke:
                run = run_workload(name, seed, seconds, False, bins, cores,
                                   SETUP_REPEATS, procs)
                report_run(run)
                runs.append(run)
                printed.update(run["e2e"])
            if traced_pass:
                traced = run_workload(name, seed, seconds, True, bins, cores,
                                      1 if args.smoke else SETUP_REPEATS, procs)
                report_run(traced, show_e2e=args.smoke)
                runs.append(traced)
                printed.update(traced["layers"])
                if args.smoke:
                    printed.update(traced["e2e"])
                else:
                    overhead = {f"trace_overhead.{k}": (traced["e2e"][k] - run["e2e"][k])
                                / run["e2e"][k] for k in run["e2e"] if run["e2e"][k]}
                    print_metrics(name, overhead)
    layers = None
    if traced_pass:
        layers = run_layers(procs, bins, cores, quick=args.smoke)
        print_metrics("layers", layers)
        printed.update(layers)

    ok = all(r["correct"] for r in runs)
    valid = all(not r["invalid"] for r in runs)
    if args.smoke:
        missing = [n for n in names("end_to_end") + names("per_layer") if n not in printed]
        if missing:
            log(f"smoke: metrics not printed: {', '.join(missing)}")
            ok = False
    out = Path(args.out) if args.out else bins / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"host": host, "runs": runs, "layers": layers}, indent=1))
    log(f"results: {out}")
    if not ok:
        log("FAILED: a correctness check failed")
        return 1
    if not valid and not args.smoke:
        log("FAILED: a run was invalid (see INVALID lines)")
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="results JSON (suite mode)")
    ap.add_argument("--bin-dir", help="use prebuilt binaries from this directory; traces "
                    "and the default results file go there too")
    args = ap.parse_args()

    procs = Procs()
    try:
        bins = build(args.bin_dir)
        host = host_info()
        log(f"host: {host['cpu_model']}, avx512ifma={host['avx512ifma']}, "
            f"cpus={host['cpus']}")
        cores = Cores()
        os.sched_setaffinity(0, cores.runner)
        if args.workload:
            return single(args, bins, cores, procs)
        return suite(args, bins, cores, procs, host)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 2
    finally:
        procs.stop_all()


if __name__ == "__main__":
    sys.exit(main())
