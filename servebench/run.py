#!/usr/bin/env python3
"""servebench: end-to-end and per-layer benchmark of flopsim-serve.

    python3 servebench/run.py --workload explore_cold --seed 1 \\
        --seconds 45 --trace 0

Run from the repository root. Builds flopsim-serve and sbtool (Release)
under $CARGO_TARGET_DIR/servebench (default .bench_build/servebench),
starts the real server on a Unix socket at its defaults (2 workers,
--threads=1, backend kAuto) and drives it with one client process
holding 2 connections in a closed loop. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. See README.md.
"""

import argparse
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

CONNS = 2
SETUP_SPAWNS = 11
P99_MIN_SAMPLES = stats.min_samples_for(0.99)
REF_SAMPLE = 8          # reference-check one cold response in 8
REF_JOBS = 3
SOCK = "srv.sock"
# Server environment knobs that would move it off its defaults.
SCRUB_ENV = ("FLOPSIM_BACKEND", "FLOPSIM_THREADS", "FLOPSIM_PROGRESS")

END_TO_END = {
    "throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "success_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
    "cpu_ms_per_req": "ms",
}
PER_LAYER = {
    "serve.parse_us": "us", "serve.key_us": "us", "serve.cache_us": "us",
    "serve.write_us": "us", "serve.queue_us": "us",
    "serve.unattributed_us": "us", "serve.cache.insert_us": "us",
    "serve.cache.load_entries_per_s": "1/s", "serve.cache.hit_ratio": "ratio",
    "serve.eval_us": "us", "serve.eval_unattributed_us": "us",
    "serve.eval_unattributed_pct": "%",
    "analysis.unit_campaign_us": "us", "analysis.unit_golden_us": "us",
    "analysis.unit_inject_us": "us", "analysis.unit_reduce_us": "us",
    "analysis.unit_trials_per_s": "1/s", "analysis.sweep_unit_us": "us",
    "analysis.matmul_campaign_us": "us", "analysis.matmul_golden_us": "us",
    "analysis.matmul_inject_us": "us", "analysis.matmul_reduce_us": "us",
    "analysis.matmul_trials_per_s": "1/s",
    "rtl.compile_us": "us", "rtl.bind_us": "us",
    "rtl.fast_path_trial_share": "ratio",
    "units.build_us": "us", "units.builds_per_request": "count",
    "device.timing_area_us": "us", "power.unit_power_us": "us",
    "fault.hardening_us": "us", "kernel.golden_cycles_per_s": "1/s",
    "fault.draw_us": "us", "fault.faults_drawn": "count",
    "fault.dropped_trials": "count",
    "fp.binary32.add_ns": "ns", "fp.binary32.mul_ns": "ns",
    "fp.binary64.add_ns": "ns", "fp.binary64.mul_ns": "ns",
    "obs.tracing_overhead_pct": "%",
}


class BenchError(Exception):
    """Set-up or harness failure: exit non-zero without a result."""


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    bdir = target / "servebench"
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        res = subprocess.run(cmd, capture_output=True, text=True)
        if res.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise BenchError("cmake configure failed:\n" + res.stdout[-3000:]
                             + res.stderr[-3000:])
    res = subprocess.run(["cmake", "--build", str(bdir), "-j4"],
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise BenchError("build failed:\n" + res.stdout[-3000:]
                         + res.stderr[-3000:])
    cache = (bdir / "CMakeCache.txt").read_text()

    def cache_var(name):
        for line in cache.splitlines():
            if line.startswith(name + ":"):
                return line.split("=", 1)[1]
        return "?"
    info = {"build_type": cache_var("CMAKE_BUILD_TYPE"),
            "compiler": cache_var("CMAKE_CXX_COMPILER") + " "
            + subprocess.run([cache_var("CMAKE_CXX_COMPILER"), "-dumpversion"],
                             capture_output=True, text=True).stdout.strip()}
    return bdir, info


# --- server -------------------------------------------------------------------

def server_env():
    return {k: v for k, v in os.environ.items() if k not in SCRUB_ENV}


def rpc(line, timeout=30.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(SOCK)
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
    return json.loads(buf)


class Server:
    """One flopsim-serve process; setup_s is spawn to first answered ping."""

    def __init__(self, binary, cache_dir, extra=()):
        if os.path.exists(SOCK):
            os.unlink(SOCK)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(binary), "serve", f"--unix={SOCK}", f"--cache-dir={cache_dir}",
             *extra],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=server_env())
        first = self.proc.stderr.readline().decode(errors="replace")
        if "listening" not in first:
            self.stop()
            raise BenchError("server did not start: " + first)
        self.drain = threading.Thread(target=self._drain, daemon=True)
        self.drain.start()
        try:
            pong = rpc('{"type": "ping"}')
        except (OSError, ValueError, BenchError):
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        if pong.get("status") != 0:
            self.stop()
            raise BenchError("ping failed")

    def _drain(self):
        # Keeps the server from blocking on a full stderr pipe.
        for _ in self.proc.stderr:
            pass

    @property
    def pid(self):
        return self.proc.pid

    def counters(self):
        resp = rpc('{"type": "metrics"}')
        return {m["metric"]: m.get("value", 0)
                for m in resp["result"]["metrics"]}

    def peak_rss_mb(self):
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def stop(self):
        if self.proc.poll() is None:
            try:
                rpc('{"type": "shutdown"}', timeout=10.0)
                self.proc.wait(timeout=30)
            except (OSError, BenchError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "drain"):
            self.drain.join(timeout=5)
        if self.proc.stderr:
            self.proc.stderr.close()


# --- client -------------------------------------------------------------------

def load(sbtool, server, seconds, tag, min_samples=0):
    """Closed-loop load over requests.jsonl; writes <tag>.tsv (responses)
    and returns (summary, [(index, latency_us)])."""
    lat, summary = f"{tag}.lat", f"{tag}.json"
    cmd = [str(sbtool), "load", f"--unix={SOCK}", "--requests=requests.jsonl",
           f"--conns={CONNS}", f"--seconds={seconds}",
           f"--min-samples={min_samples}", f"--server-pid={server.pid}",
           f"--lat={lat}", f"--out={tag}.tsv", f"--summary={summary}"]
    res = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=3 * seconds + 120)
    if res.returncode != 0:
        raise BenchError("client failed: " + res.stderr[-2000:])
    with open(summary) as f:
        s = json.load(f)
    raw = array("d")
    with open(lat, "rb") as f:
        raw.frombytes(f.read())
    return s, list(zip(map(int, raw[0::2]), raw[1::2]))


def read_responses(path):
    out = {}
    with open(path) as f:
        for line in f:
            idx, body = line.rstrip("\n").split("\t", 1)
            out[int(idx)] = body
    return out


def check_response(body):
    """Status 0, and for campaigns every injected fault has one outcome."""
    try:
        resp = json.loads(body)
    except ValueError:
        return False
    if resp.get("status") != 0:
        return False
    res = resp.get("result", {})
    if "injected" in res:
        return res["injected"] == (res["masked"] + res["detected"]
                                   + res["corrected"] + res["silent"])
    return True


def reference_check(sbtool, reqs_file, responses, seed):
    """Compare a seeded 1/REF_SAMPLE sample against a cacheless,
    interpreted Service in sbtool. Returns the set of failed indices."""
    rng = random.Random(workloads.derive(seed, "reference-sample"))
    sample = sorted(i for i in responses if rng.randrange(REF_SAMPLE) == 0)
    if not sample and responses:
        sample = [min(responses)]
    with open("ref_indices.txt", "w") as f:
        f.write("".join(f"{i}\n" for i in sample))
    res = subprocess.run([str(sbtool), "ref", f"--requests={reqs_file}",
                          "--indices=ref_indices.txt", "--out=ref.tsv",
                          f"--jobs={REF_JOBS}"],
                         capture_output=True, text=True, timeout=150)
    if res.returncode != 0:
        raise BenchError("reference evaluation failed: " + res.stderr[-2000:])
    ref = read_responses("ref.tsv")
    bad = {i for i in sample if ref.get(i) != responses[i]}
    for i in sorted(bad)[:3]:
        log(f"reference mismatch at request {i}:\n  got {responses[i]}\n"
            f"  ref {ref.get(i)}")
    return bad


# --- workload preparation ----------------------------------------------------

def stream_limit(workload, seconds):
    """Requests to generate: matmul_cold has room for 500 requests/s over
    the longest window; the explore_cold stream ends on its own."""
    if workload == "matmul_cold":
        return int(500 * 3 * seconds)
    return 10 ** 6


def prepare(workload, seed, seconds):
    """Write requests.jsonl and return the requests."""
    reqs = workloads.requests(workload, seed, stream_limit(workload, seconds))
    with open("requests.jsonl", "w") as f:
        f.write(workloads.render(reqs))
    return reqs


# --- one measured server ------------------------------------------------------

class Phase:
    """A server run: its spawns' set-up times, load results and checks."""

    def __init__(self, summary, recs, failed, counters, rss, setups):
        self.summary = summary
        self.recs = recs
        self.failed = failed
        self.counters = counters
        self.peak_rss_mb = rss
        self.setups = setups

    @property
    def sent(self):
        return int(self.summary["sent"])

    @property
    def throughput(self):
        return stats.ratio(self.summary["completed"], self.summary["window_s"])


def run_phase(seed, seconds, binary, sbtool, tag, spawns=1, extra=(),
              min_samples=0):
    """Spawn the server `spawns` times over fresh cache dirs (set-up time
    of each), load the last one and check every response."""
    setups = []
    for k in range(spawns - 1):
        s = Server(binary, f"{tag}-cache{k}", extra)
        setups.append(s.setup_s)
        s.stop()
    server = Server(binary, f"{tag}-cache", extra)
    setups.append(server.setup_s)
    try:
        summary, recs = load(sbtool, server, seconds, tag, min_samples)
        counters = server.counters()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    responses = read_responses(f"{tag}.tsv")
    bad = {i for i, b in responses.items() if not check_response(b)}
    bad |= reference_check(sbtool, "requests.jsonl", responses, seed)
    failed = len(bad) + int(summary["sent"]) - int(summary["completed"])
    return Phase(summary, recs, failed, counters, rss, setups)


# --- reporting ------------------------------------------------------------------

def class_shares(reqs, recs):
    """Per request class: count, and share of summed client round-trip time."""
    count, time_us = {}, {}
    for idx, us in recs:
        c = workloads.request_class(reqs[idx])
        count[c] = count.get(c, 0) + 1
        time_us[c] = time_us.get(c, 0.0) + us
    total = sum(time_us.values())
    return {c: {"count": count[c], "time_share": stats.ratio(time_us[c], total)}
            for c in sorted(count)}


def guards(workload, phase, reqs, build_info, backend, extra=None):
    c = phase.counters
    hits, misses = c.get("serve.cache.hit", 0), c.get("serve.cache.miss", 0)
    g = {
        "workload": workload,
        "hit_ratio": stats.ratio(hits, hits + misses),
        "classes": class_shares(reqs, phase.recs),
        "dropped_trials": c.get("campaign.unit.dropped_trials", 0)
        + c.get("campaign.matmul.dropped_trials", 0),
        "backend_fallbacks": c.get("campaign.unit.backend_fallback", 0)
        + c.get("campaign.matmul.backend_fallback", 0),
        "resolved_backend": backend,
        "samples": len(phase.recs),
        "window_s": phase.summary["window_s"],
        "stream_exhausted": bool(phase.summary["exhausted"]),
        "nproc": len(os.sched_getaffinity(0)),
        **build_info,
    }
    if extra:
        g.update(extra)
    return g


def end_to_end(phase):
    s = phase.summary
    lat_ms = [us / 1000.0 for _, us in phase.recs]
    cpu_ms = s["cpu_ticks"] / s["clk_tck"] * 1000.0
    return {
        "throughput_rps": phase.throughput,
        "latency_p50_ms": stats.percentile(lat_ms, 0.5),
        "latency_p99_ms": stats.tail_percentile(lat_ms, 0.99),
        "success_rate": stats.ratio(phase.sent - phase.failed, phase.sent),
        "setup_s": statistics.median(phase.setups),
        "peak_rss_mb": phase.peak_rss_mb,
        "cpu_ms_per_req": stats.ratio(cpu_ms, s["completed"]),
    }


def access_log_layers(path, recs):
    """serve.* phase means from the server's access log."""
    rows = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("type") in ("plan", "campaign"):
                rows.append(rec)
    if not rows:
        raise BenchError("empty access log")

    def mean(key):
        return statistics.fmean(r[key] for r in rows)
    client_us = statistics.fmean(us for _, us in recs)
    return {
        "serve.parse_us": mean("parse_us"),
        "serve.cache_us": mean("cache_us"),
        "serve.write_us": mean("write_us"),
        "serve.queue_us": mean("queue_us"),
        "serve.unattributed_us": client_us - mean("total_us"),
    }, rows


def server_time_shares(reqs, rows):
    time_us = {}
    for r in rows:
        c = workloads.request_class(reqs[r["id"]])
        time_us[c] = time_us.get(c, 0.0) + r["total_us"]
    total = sum(time_us.values())
    return {c: stats.ratio(t, total) for c, t in sorted(time_us.items())}


def read_metrics_file(path):
    out = {}
    with open(path) as f:
        for line in f:
            m = json.loads(line)
            if "value" in m:
                out[m["metric"]] = m["value"]
    return out


def result(correct, attempted, failed, metrics, units):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


# --- main -------------------------------------------------------------------------

def run(args, root):
    bdir, build_info = build(root)
    binary, sbtool = bdir / "flopsim-serve", bdir / "sbtool"
    backend = json.loads(subprocess.run(
        [str(sbtool), "info"], capture_output=True, text=True,
        env=server_env(), check=True).stdout)["backend"]
    run_dir = bdir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)  # keeps the socket path short
    try:
        reqs = prepare(args.workload, args.seed, args.seconds)
        if args.trace:
            return run_traced(args, reqs, binary, sbtool, build_info, backend)
        phase = run_phase(args.seed, args.seconds, binary, sbtool, "measured",
                          spawns=SETUP_SPAWNS, min_samples=P99_MIN_SAMPLES)
        print("guards: " + json.dumps(guards(args.workload, phase, reqs,
                                             build_info, backend)))
        metrics = end_to_end(phase)
        return result(phase.failed == 0, phase.sent, phase.failed, metrics,
                      END_TO_END)
    finally:
        os.chdir(root)
        shutil.rmtree(run_dir, ignore_errors=True)


def run_traced(args, reqs, binary, sbtool, build_info, backend):
    """Untraced and traced server runs and the in-process replay, each a
    third of --seconds."""
    third = args.seconds / 3.0
    plain = run_phase(args.seed, third, binary, sbtool, "untraced")
    traced = run_phase(args.seed, third, binary, sbtool, "traced",
                       extra=["--access-log=access.jsonl",
                              "--metrics=metrics.jsonl",
                              "--trace=trace.json"])
    layers, rows = access_log_layers("access.jsonl", traced.recs)
    counters = read_metrics_file("metrics.jsonl")
    hits = counters.get("serve.cache.hit", 0)
    misses = counters.get("serve.cache.miss", 0)
    layers["serve.cache.hit_ratio"] = stats.ratio(hits, hits + misses)
    layers["obs.tracing_overhead_pct"] = 100.0 * stats.ratio(
        plain.throughput - traced.throughput, plain.throughput)

    cmd = [str(sbtool), "trace", "--requests=requests.jsonl",
           f"--seconds={third}", "--dir=probe",
           f"--block={workloads.ROUND_SIZE[args.workload]}"]
    os.makedirs("probe")
    res = subprocess.run(cmd, capture_output=True, text=True,
                         env=server_env(), timeout=3 * third + 150)
    if res.returncode != 0:
        raise BenchError("traced replay failed: " + res.stderr[-2000:])
    probe = json.loads(res.stdout.strip().splitlines()[-1])
    layers.update({k: v for k, v in probe.items() if k in PER_LAYER})
    missing = set(PER_LAYER) - set(layers)
    if missing:
        raise BenchError(f"per-layer metrics missing: {sorted(missing)}")
    print("guards: " + json.dumps(guards(
        args.workload, traced, reqs, build_info, backend,
        {"server_time_share": server_time_shares(reqs, rows),
         "probe_requests": probe["requests"]})))
    attempted = plain.sent + traced.sent
    failed = plain.failed + traced.failed
    return result(failed == 0, attempted, failed, layers, PER_LAYER)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = HERE.parent
    for need in ("src/CMakeLists.txt", "tools/serve_tool.cpp"):
        if not (root / need).is_file():
            log(f"missing {need}: run from a flopsim checkout")
            return 2
    try:
        out = run(args, root)
    except (BenchError, ValueError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
