#!/usr/bin/env python3
"""End-to-end benchmark of obscorr: one command, three workloads.

    python3 perfbench/run.py --workload campaign|serve_dashboard|serve_live
                             [--seed 42] [--seconds 10] [--trace 0|1]
                             [--record FILE] [--keep]

Run from the repository root. The first run builds the production binaries
and the benchmark's helpers from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR or .bench_build/. Every run checks the program's outputs
and exits non-zero, without a result line, when a check fails. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics (telemetry off),
--trace 1 the per-layer metrics of a separate traced run. --record appends
the run's full detail (both metric sets where measured, the workload's
properties, the layer table) as one JSON line to FILE; summarize.py turns
such records into the committed trajectory row and layer table.

README.md in this directory says why each workload exists and which layers
it isolates.
"""

import argparse
import filecmp
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib as bl  # noqa: E402

ROOT = HERE.parent
NPROC = os.cpu_count() or 1
WORKLOADS = ("campaign", "serve_dashboard", "serve_live")

# Workload parameters (the offered rates are also stated in BENCHMARK.json).
CAMPAIGN_LOG2_NV = 20
CAMPAIGN_VALID = 5 << CAMPAIGN_LOG2_NV  # valid packets: 5 snapshots of N_V
FIXTURE_LOG2_NV = 16
FIXTURE_WINDOWS = 32         # live windows ingested into the serve fixture
SESSIONS = 2                 # daemon sessions per serve run (medians reported)
PASSES = 3                   # fixture passes per serve run (minimum reported),
                             # one before each session and one after the last
CAMPAIGN_ARCHIVES = 3        # archive runs per campaign run (minimum reported),
CAMPAIGN_PAIRS = 3           # each followed by this many compact + report pairs
FIXTURE_REPEATS = (2, 4)     # archive runs, compact + report pairs per fixture pass
DASHBOARD_RATE = 2000.0      # req/s, a fifth of the parent's max_rps
LIVE_RATE = 300.0            # req/s, below the parent's ingest-time capacity
# serve_live's requests per block of 1000: lookup, degrees of the newest
# window, degrees of a compacted fixture window, stats, metrics.
LIVE_BLOCK = (25, 300, 150, 325, 200)
LIVE_WINDOWS = 400           # new windows that end a session's phase,
LIVE_MIN_REQUESTS = 1100     # but not before this many requests were sent;
LIVE_PLAN_S = 60.0           # its plan is only a cap
LIVE_CACHE_BYTES = 512 << 10  # page-cache budget: keeps about a third of the
                              # compacted windows' decoded source reductions
LATENCY_LIMIT_MS = 10.0      # max_rps ladder: p99 limit
LADDER = (500.0, 40000.0, 1.25)
LADDER_STEP_S = 1.5
GEN_LATE_BOUND_MS = 25.0     # generator's own bound on its p99 lateness;
                             # a session past it is discarded and rerun
REQUEST_TIMEOUT_MS = 5000.0
MIN_TAIL_SAMPLES = 1000      # p99 needs ten samples beyond it
CACHEABLE = ("lookup", "degrees", "report", "scaling", "correlate")
RENDER_CACHE_KEYS = 256      # the engine's render-cache admission limit


class BenchError(Exception):
    """A failed step or output check: the run reports no result."""


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------------
# Build and processes


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no obscorr sources under {ROOT}: run from a repository checkout")
    bd = build_dir / "perfbench"
    logf = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(logf, "a") as out:
        if not (bd / "CMakeCache.txt").is_file():
            rc = subprocess.call(["cmake", "-S", str(HERE), "-B", str(bd),
                                  "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"],
                                 stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"cmake configure failed (see {logf})")
        rc = subprocess.call(["cmake", "--build", str(bd), "-j", str(NPROC), "--target",
                              "obscorr", "perfbench_load", "perfbench_tool"],
                             stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError(f"build failed (see {logf})")
    return {"obscorr": bd / "obscorr" / "tools" / "obscorr",
            "load": bd / "perfbench_load", "tool": bd / "perfbench_tool"}


def reap(proc, timeout):
    """Wait for `proc`, returning (exit code, peak RSS in MiB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ru.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise BenchError(f"{proc.args[1] if len(proc.args) > 1 else proc.args[0]} "
                             f"did not exit within {timeout:.0f} s")
        time.sleep(0.002)


class Runner:
    """Runs program steps, counting attempts and failures."""

    def __init__(self, bins, work):
        self.bins = bins
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.live = []
        self.invalid_sessions = []

    def step(self, args, timeout=170.0):
        """Run one CLI step; return (seconds, stdout text, peak RSS in MiB)."""
        self.attempted += 1
        with open(self.work / "steps.stderr", "a") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in args], stdout=subprocess.PIPE, stderr=err)
            text = proc.stdout.read().decode()
            rc, rss = reap(proc, timeout)
            dt = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            raise BenchError(f"step failed with {rc}: {' '.join(map(str, args))}")
        return dt, text, rss

    def obscorr(self, *args):
        return self.step([self.bins["obscorr"], *args, "--threads", str(NPROC)])

    def stop_all(self):
        for d in list(self.live):
            d.kill()


class Client:
    """One blocking NDJSON connection."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REQUEST_TIMEOUT_MS / 1000.0 * 12)
        self.sock.connect(str(path))
        self.buf = b""

    def readline(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def request(self, obj):
        self.sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())
        line = self.readline()
        if not line.startswith('{"id":null,"ok":true,'):
            raise BenchError(f"request {obj} failed: {line[:300]}")
        return line

    def close(self):
        self.sock.close()


class Daemon:
    """One `obscorr serve` process over an archive directory."""

    spawned = 0

    def __init__(self, runner, archive, threads, extra=(), telemetry=None):
        self.runner = runner
        # Relative to the work directory (the process's cwd): a checkout's
        # absolute path may exceed the 107-byte limit of a socket address.
        Daemon.spawned += 1
        self.sock = Path(f"d{Daemon.spawned}.sock")
        args = [runner.bins["obscorr"], "serve", "--from", archive, "--unix", self.sock,
                "--threads", threads, *extra]
        if telemetry:
            args += ["--trace-out", telemetry / "trace.json",
                     "--metrics-out", telemetry / "metrics.json", "--metrics-interval", "3600"]
        self.t0 = time.perf_counter()
        self.err = open(runner.work / "daemon.stderr", "a")
        self.proc = subprocess.Popen([str(a) for a in args], stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        runner.live.append(self)
        runner.attempted += 1
        self.rss = 0.0

    def wait_listening(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode} before listening")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(str(self.sock))
                s.close()
                return time.perf_counter() - self.t0
            except OSError:
                s.close()
            if time.monotonic() > deadline:
                raise BenchError("daemon did not start listening")
            time.sleep(0.001)

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        rc, self.rss = reap(self.proc, 60.0)
        self.err.close()
        self.runner.live.remove(self)
        if rc != 0:
            self.runner.failed += 1
            raise BenchError(f"daemon exited with {rc}")

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                os.wait4(self.proc.pid, 0)
            except ChildProcessError:
                pass
        if self in self.runner.live:
            self.runner.live.remove(self)


# --------------------------------------------------------------------------
# Serve: warm-up, plans, load phases


def warm_up(daemon, keys):
    """Spawn-to-ready: listening, then one request per key class, the first
    lookup alone (it builds the honeyfarm database). Returns the timings."""
    t = {"listen_s": daemon.wait_listening()}
    c = Client(daemon.sock)
    t["database_s"] = 0.0
    t["first_render_s"] = 0.0
    for kind, req in keys:
        t0 = time.perf_counter()
        c.request(req)
        dt = time.perf_counter() - t0
        if kind == "lookup" and t["database_s"] == 0.0:
            t["database_s"] = dt
        elif kind in ("report", "scaling", "correlate"):
            t["first_render_s"] += dt
    c.close()
    t["setup_s"] = time.perf_counter() - daemon.t0
    return t


def req_line(obj):
    return json.dumps(obj, separators=(",", ":"))


def dashboard_mix(ips):
    """serve_dashboard's polling key set: (kind, request, count per block)."""
    mix = [("stats", {"query": "stats"}, 12), ("metrics", {"query": "metrics"}, 6),
           ("report", {"query": "report"}, 6), ("scaling", {"query": "scaling"}, 4),
           ("correlate", {"query": "correlate", "params": {"domain": "snapshots"}}, 6)]
    mix += [("degrees", {"query": "degrees", "params": {"snapshot": k}}, 4) for k in range(5)]
    mix += [("lookup", {"query": "lookup", "params": {"ip": ip}}, 3) for ip in ips]
    return mix


def live_mix(ips, compacted_windows):
    """serve_live's wide-key mix: lookups drawn Zipf(1) over the observed
    sources in `ips` (seed-shuffled rank order), degrees of the newest window
    (request None: the generator fills in the window), degrees of a compacted
    window drawn uniformly (its source reduction decodes through the page
    cache), stats and metrics. correlate over windows is answered once in set-up only: it re-ranks every
    live window (about 8 ms per window here) under the shared lock, which
    stalls ingest for its whole duration, so a handful of them would decide
    both query_p99_ms and ingest_mpps."""
    cum = []
    acc = 0.0
    for r in range(len(ips)):
        acc += 1.0 / (r + 1)
        cum.append(acc)

    def lookup(rng):
        return {"query": "lookup",
                "params": {"ip": ips[rng.choices(range(len(ips)), cum_weights=cum)[0]]}}

    def compacted(rng):
        return {"query": "degrees", "params": {"window": rng.randrange(compacted_windows)}}

    return [(k, r, n) for (k, r), n in zip(
        (("lookup", lookup), ("degrees", None), ("degrees", compacted),
         ("stats", {"query": "stats"}), ("metrics", {"query": "metrics"})), LIVE_BLOCK)]


def write_plan(path, rng, mix, rate, seconds, conns):
    """An open-loop schedule at a fixed `rate` (evenly spaced due times).
    Requests come in blocks holding each mix entry exactly its count times,
    shuffled by the seed, so every run offers the same mix. Requests spread
    round-robin over the connections."""
    n = max(1, int(rate * seconds))
    block = [m for m in mix for _ in range(m[2])]
    order = []
    while len(order) < n:
        b = block[:]
        rng.shuffle(b)
        order += b
    lines = []
    for i, (kind, req, _) in enumerate(order[:n]):
        head = f"{i * 1e6 / rate:.1f} {i % conns} {kind}"
        if req is None:
            lines.append(f"{head} N -")
        else:
            lines.append(f"{head} = {req_line(req(rng) if callable(req) else req)}")
    path.write_text("\n".join(lines) + "\n")
    return n


def run_load(runner, daemon, tag, plan_path, watch=False, stop_windows=0, drain_ms=5000.0):
    out = runner.work / f"{tag}.records"
    responses = runner.work / f"{tag}.responses"
    events = runner.work / f"{tag}.events"
    args = [runner.bins["load"], "--unix", daemon.sock, "--plan", plan_path, "--out", out,
            "--responses", responses, "--events", events,
            "--timeout-ms", str(REQUEST_TIMEOUT_MS), "--drain-ms", str(drain_ms)]
    if watch:
        args += ["--watch", "--stop-windows", str(stop_windows),
                 "--min-requests", str(LIVE_MIN_REQUESTS)]
    proc = subprocess.run([str(a) for a in args], capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"load generator failed: {proc.stderr.strip()}")
    return parse_records(out), responses, events


def parse_records(path):
    recs = []
    phase_s = 0.0
    for line in path.read_text().splitlines():
        if line.startswith("# phase_us"):
            phase_s = float(line.split()[2]) / 1e6
            continue
        idx, kind, conn, due, lag, lat, status, window = line.split()
        recs.append({"kind": kind, "due_s": float(due) / 1e6, "lag_ms": float(lag) / 1e3,
                     "lat_ms": float(lat) / 1e3 if int(status) in (0, 3) else bl.INF,
                     "status": int(status), "window": int(window)})
    return {"records": recs, "phase_s": phase_s}


def summarize_load(load, rate):
    recs = load["records"]
    if not recs:
        raise BenchError("load phase sent no requests")
    lat = [r["lat_ms"] if r["status"] == 0 else bl.INF for r in recs]
    s = bl.latency_summary(lat)
    lags = [r["lag_ms"] for r in recs]
    end = max(r["due_s"] for r in recs) + 1.0 / rate
    pairs = [(r["due_s"], r["due_s"] + r["lat_ms"] / 1e3) for r in recs]
    backlog = bl.backlog_samples(pairs, 0.0, end)
    by_type = {}
    for r, v in zip(recs, lat):
        by_type.setdefault(r["kind"], []).append(v)
    chunks = bl.chunked_latency(lat) if len(lat) >= MIN_TAIL_SAMPLES else None
    return {
        "count": s["count"], "p50_ms": s["p50"], "p99_ms": s["tail"], "tail_q": s["tail_q"],
        "slice_p50_ms": chunks["p50"] if chunks else bl.INF,
        "slice_p99_ms": chunks["p99"] if chunks else bl.INF,
        "failed": sum(1 for r in recs if r["status"] in (1, 2)),
        "mismatched": sum(1 for r in recs if r["status"] == 3),
        "late_p99_ms": bl.percentile(lags, 99.0),
        "backlog_max": max(backlog), "growing": bl.backlog_growing(backlog, len(recs)),
        "by_type": {k: bl.latency_summary(v) for k, v in sorted(by_type.items())},
    }


def check_load(summary, what):
    if summary["mismatched"]:
        raise BenchError(f"{what}: {summary['mismatched']} repeats of a key returned other "
                         "bytes than its first answer")
    if summary["failed"]:
        raise BenchError(f"{what}: {summary['failed']} of {summary['count']} requests failed")


def render_check(runner, archive, responses, rng, domain, sample=12):
    """Compare a seeded sample of first answers with the in-process
    svc/render.hpp output over the same archive."""
    firsts = [l.split("\t", 1) for l in responses.read_text().splitlines() if "\t" in l]
    if not firsts:
        raise BenchError("no render responses to check")
    by_kind = {}
    for req, resp in firsts:
        by_kind.setdefault(json.loads(req)["query"], []).append((req, resp))
    chosen = [rng.choice(v) for _, v in sorted(by_kind.items())]
    rest = [x for x in firsts if x not in chosen]
    chosen += rng.sample(rest, min(len(rest), max(0, sample - len(chosen))))
    reqs = []
    for req, resp in chosen:
        obj = json.loads(req)
        if obj["query"] == "correlate":
            res = json.loads(resp)["result"]
            b, h = res["baseline"], res["highlight"]
            obj = {"query": "correlate", "params": {
                "domain": domain, "method": res["method"], "top": 10,
                "baseline": f"{b['first']}:{b['last']}",
                "highlight": f"{h['first']}:{h['last']}"}}
        reqs.append(req_line(obj))
    reqfile = runner.work / "render.requests"
    reqfile.write_text("\n".join(reqs) + "\n")
    proc = subprocess.run([str(runner.bins["tool"]), "render", "--from", str(archive),
                           "--requests", str(reqfile)], capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"render reference failed: {proc.stderr.strip()}")
    refs = [json.loads(l) for l in proc.stdout.splitlines()]
    for (req, resp), ref in zip(chosen, refs):
        if json.loads(resp)["result"]["text"] != ref:
            raise BenchError(f"response to {req} differs from the in-process render")
    return len(chosen)


def render_hit_share(keys):
    """Share of cacheable requests whose key was sent before and is among the
    first RENDER_CACHE_KEYS distinct keys (the engine admits only those)."""
    admitted = set()
    seen = set()
    hits = 0
    for key in keys:
        if key in seen and key in admitted:
            hits += 1
        if key not in seen:
            seen.add(key)
            if len(admitted) < RENDER_CACHE_KEYS:
                admitted.add(key)
    return hits / len(keys) if keys else 0.0


# --------------------------------------------------------------------------
# Fixtures


def archive_dir_equal(a, b):
    fa = sorted(p.name for p in a.iterdir())
    fb = sorted(p.name for p in b.iterdir())
    return fa == fb and all(filecmp.cmp(a / n, b / n, shallow=False) for n in fa)


def parse_compact_stats(text):
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(":")
        val = val.strip()
        if key == "entries":
            out["entries"] = int(val.split()[0].replace(",", ""))
        elif key == "raw bytes":
            out["raw_bytes"] = int(val.replace(",", ""))
        elif key == "stored bytes":
            out["stored_bytes"] = int(val.split("->")[1].strip().replace(",", ""))
    if len(out) != 3:
        raise BenchError(f"unexpected compact --stats output: {text!r}")
    out["compression_ratio"] = out["raw_bytes"] / out["stored_bytes"]
    return out


class BatchPasses:
    """The CLI steps a workload repeats. Passes are spread over the run, each
    metric is the minimum over its passes (the repository's min-of-N
    protocol: on a shared host, contention only ever adds time), and every
    pass must reproduce the first one's output. Each compaction rewrites a
    fresh copy of its input; making that copy is the pass's fixture
    preparation, timed apart from the step."""

    def __init__(self, runner):
        self.runner = runner
        self.times = {"archive_s": [], "compact_s": [], "report_s": []}
        self.prepare_s = []
        self.rss_mib = 0.0
        self.ingest_mpps = []
        self.stats = None
        self.reports = 0

    def run(self, key, *args):
        dt, text, rss = self.runner.obscorr(*args)
        self.times[key].append(dt)
        self.rss_mib = max(self.rss_mib, rss)
        return text

    def archive(self, out, log2_nv, seed):
        shutil.rmtree(out, ignore_errors=True)
        self.run("archive_s", "archive", "--out", out, "--log2-nv", log2_nv, "--seed", seed)

    def compact(self, src, dst, extra=()):
        """Compact a fresh copy `dst` of `src`."""
        t0 = time.perf_counter()
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        self.prepare_s.append(time.perf_counter() - t0)
        st = parse_compact_stats(self.run("compact_s", "archive", "compact", "--dir", dst,
                                          "--stats", *extra))
        if self.stats is not None and st != self.stats:
            raise BenchError("compaction is not deterministic across passes")
        self.stats = st

    def report(self, archive):
        out = self.runner.work / f"report{self.reports}"
        out.mkdir()
        self.run("report_s", "report", "--from", archive, "--out", out)
        if self.reports and not archive_dir_equal(self.runner.work / "report0", out):
            raise BenchError("report output differs between passes")
        self.reports += 1

    def result(self):
        out = {k: min(v) for k, v in self.times.items()}
        out["compression_ratio"] = self.stats["compression_ratio"]
        out["stats"] = self.stats
        if self.ingest_mpps:
            out["ingest_mpps"] = max(self.ingest_mpps)
        return out


def unloaded_ingest(runner, archive):
    """Valid Mpkt/s of an unloaded daemon ingesting FIXTURE_WINDOWS live
    windows into `archive`, timed between the first and the last heartbeat
    its watcher receives."""
    d = Daemon(runner, archive, NPROC, ["--ingest-windows", FIXTURE_WINDOWS])
    d.wait_listening()
    c = Client(d.sock)
    c.sock.sendall(b'{"query":"watch"}\n')
    seen = json.loads(c.readline())["result"]["windows"]
    beats = []
    while seen < FIXTURE_WINDOWS:
        ev = json.loads(c.readline())
        if ev.get("event") == "window":
            beats.append((time.perf_counter(), ev["valid_packets"]))
            seen = ev["window"] + 1
    c.close()
    d.stop()
    if len(beats) < 2:
        raise BenchError("fixture ingest published too few windows after subscribe")
    return sum(b[1] for b in beats[1:]) / (beats[-1][0] - beats[0][0]) / 1e6


def fixture_pass(runner, passes, seed, i, ingest):
    """One pass of the serve fixture's CLI steps: archive 2^16, an unloaded
    daemon ingesting FIXTURE_WINDOWS live windows, then compaction with the
    default --keep-recent, then report --from, each step repeated as
    FIXTURE_REPEATS says (the steps take 0.1-1.5 s, so one sample is noise).
    Pass 0 builds the fixture and keeps its uncompacted source, which every
    pass compacts; later passes only add timings, and run the unloaded
    ingest again only when `ingest` asks for its rate."""
    raw = runner.work / f"fixture_raw{i}"
    for _ in range(FIXTURE_REPEATS[0]):
        passes.archive(raw, FIXTURE_LOG2_NV, seed)
    if i == 0 or ingest:
        passes.ingest_mpps.append(unloaded_ingest(runner, raw))
    src = runner.work / "fixture_src"
    if i == 0:
        raw.rename(src)
    else:
        shutil.rmtree(raw)
    dst = runner.work / ("fixture" if i == 0 else f"fixture{i}")
    for _ in range(FIXTURE_REPEATS[1]):
        passes.compact(src, dst)
        passes.report(dst)
    if i:
        shutil.rmtree(dst)
    return dst


def compacted_windows(runner, archive):
    """(live windows whose source reduction is compressed, their decoded
    bytes): the page-cache working set of compacted-window reads. `archive
    compact` keeps the newest windows raw (its default --keep-recent)."""
    proc = subprocess.run([str(runner.bins["tool"]), "compacted", "--from", str(archive)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"compacted failed: {proc.stderr.strip()}")
    windows, nbytes = map(int, proc.stdout.split())
    if windows == 0:
        raise BenchError("the fixture has no compacted live window")
    return windows, nbytes


def observed_ips(runner, archive):
    proc = subprocess.run([str(runner.bins["tool"]), "sources", "--from", str(archive)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"sources failed: {proc.stderr.strip()}")
    ips = proc.stdout.split()
    if len(ips) < 64:
        raise BenchError("too few observed sources for the lookup key set")
    return ips


# --------------------------------------------------------------------------
# Telemetry: per-layer metrics from the program's own export


def span_events(trace_path):
    doc = json.loads(Path(trace_path).read_text())
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def program_layers(metrics, events, threads, wall_s):
    """Per-layer metrics the program exports (obscorr.metrics.v1 document),
    by the benchmark's layer names; 0 where the workload runs no such work."""
    c, g, sp = metrics["counters"], metrics["gauges"], metrics["spans"]

    def span_s(name):
        return sp.get(name, {}).get("total_ns", 0) / 1e9

    def ratio(a, b):
        return a / (a + b) if a + b else 0.0

    def durs(name):
        return [e["dur"] / 1e3 for e in events if e["name"] == name]

    ingest = durs("svc.ingest_window")
    publish = durs("archive.finalize")
    return {
        "netgen.plan_s": span_s("netgen.plan_window"),
        "core.capture_window_s": span_s("core.capture_window"),
        "telescope.finish_window_s": (span_s("telescope.finish_window")
                                      + span_s("telescope.shard_finish")),
        "telescope.merge_s": c.get("telescope.merge_ns", 0) / 1e9,
        "telescope.anon_hit_ratio": ratio(c.get("telescope.anon_cache_hits", 0),
                                          c.get("telescope.anon_cache_misses", 0)),
        "archive.crc_s": c.get("archive.crc_ns", 0) / 1e9,
        "archive.bytes_written": float(c.get("archive.bytes_written", 0)),
        "archive.decode_s": span_s("archive.decode"),
        "cache.hit_ratio": ratio(c.get("cache.hits", 0), c.get("cache.misses", 0)),
        "cache.evictions": float(c.get("cache.evictions", 0)),
        "stats.bootstrap_s": span_s("stats.bootstrap"),
        "threadpool.busy_frac": (c.get("threadpool.busy_ns", 0) / 1e9 / (threads * wall_s)
                                 if wall_s > 0 else 0.0),
        "threadpool.queue_high_water": float(g.get("threadpool.queue_high_water", 0)),
        "mem.pool_hit_ratio": ratio(c.get("mem.pool_hits", 0), c.get("mem.pool_misses", 0)),
        "svc.bytes_out_per_req": (c.get("svc.bytes_out", 0) / c["svc.requests"]
                                  if c.get("svc.requests") else 0.0),
        "svc.ingest_window_p50_ms": bl.percentile(ingest, 50) if ingest else 0.0,
        "svc.ingest_window_p99_ms": bl.percentile(ingest, 99) if ingest else 0.0,
        "archive.publish_ms": bl.percentile(publish, 50) if publish else 0.0,
    }


SVC_TYPES = ("stats", "metrics", "degrees", "lookup", "report", "scaling", "correlate")
BENCH_LAYERS = ("netgen.population_s", "core.snapshot_s", "core.snapshot_mpps",
                "honeyfarm.month_s", "archive.write_s", "archive.compact_s", "archive.open_s",
                "archive.load_s", "core.degrees_s", "core.peak_corr_s", "core.fit_grid_s")
SVC_LAYERS = (("svc.listen_s", "honeyfarm.database_s", "svc.first_render_s")
              + tuple(f"svc.{t}_{q}_ms" for t in SVC_TYPES for q in ("p50", "p99"))
              + ("svc.query_p50_ms", "svc.query_p99_ms",
                 "svc.execute_p50_ms", "svc.execute_p99_ms", "svc.frontend_ms",
                 "svc.render_hit_share", "gen.late_p99_ms", "gen.backlog_max"))
PROGRAM_LAYERS = tuple(program_layers({"counters": {}, "gauges": {}, "spans": {}}, [], 1, 0))
PER_LAYER = BENCH_LAYERS + PROGRAM_LAYERS + SVC_LAYERS + ("unattributed_s", "unattributed_share")


def svc_layers(warm, summary, engine_latency, hit_share):
    out = {"svc.listen_s": warm["listen_s"], "honeyfarm.database_s": warm["database_s"],
           "svc.first_render_s": warm["first_render_s"]}
    out["svc.query_p50_ms"] = summary["p50_ms"]
    out["svc.query_p99_ms"] = summary["p99_ms"]
    for t in SVC_TYPES:
        s = summary["by_type"].get(t)
        out[f"svc.{t}_p50_ms"] = s["p50"] if s else 0.0
        out[f"svc.{t}_p99_ms"] = s["tail"] if s else 0.0
    # The engine keeps one digest per query type (warm-up included): report
    # the request-weighted mean of the per-type medians, the worst per-type
    # p99, and as the front end's share the request-weighted mean of each
    # type's client median minus its engine median.
    typed = {t: d for t, d in engine_latency.items() if t in summary["by_type"]}
    n = sum(d["count"] for d in typed.values())
    out["svc.execute_p50_ms"] = (sum(d["count"] * d["p50_us"] for d in typed.values())
                                 / n / 1e3 if n else 0.0)
    out["svc.execute_p99_ms"] = max((d["p99_us"] for d in typed.values()), default=0.0) / 1e3
    out["svc.frontend_ms"] = (sum(d["count"] * (summary["by_type"][t]["p50"] - d["p50_us"] / 1e3)
                                  for t, d in typed.items()) / n if n else 0.0)
    out["svc.render_hit_share"] = hit_share
    out["gen.late_p99_ms"] = summary["late_p99_ms"]
    out["gen.backlog_max"] = float(summary["backlog_max"])
    return out


# --------------------------------------------------------------------------
# Workloads


def serve_phase(runner, daemon, tag, rng, mix, rate, seconds, conns, warm_keys, live=False):
    """One measured open-loop phase. serve_live's phase ends at the
    LIVE_WINDOWS-th heartbeat; the others end with their `seconds`-long
    plan."""
    plan = runner.work / f"{tag}.plan"
    write_plan(plan, rng, mix, rate, LIVE_PLAN_S if live else seconds, conns)
    before = page_cache_counters(daemon)
    load, responses, events = run_load(runner, daemon, tag, plan, watch=live,
                                       stop_windows=LIVE_WINDOWS if live else 0)
    after = page_cache_counters(daemon)
    summary = summarize_load(load, rate)
    check_load(summary, tag)
    if summary["count"] < MIN_TAIL_SAMPLES:
        raise BenchError(f"{tag}: {summary['count']} requests, fewer than the "
                         f"{MIN_TAIL_SAMPLES} a p99 needs")
    runner.attempted += summary["count"]
    c = Client(daemon.sock)
    stats = json.loads(c.request({"query": "stats"}))["result"]
    c.close()
    # Cacheable request keys in send order, warm-up first. A default-framed
    # correlate resolves its range in the engine, so its key is the window
    # count it was answered at; that count is not recorded, so those
    # requests count as repeats of one key (an upper bound on hits).
    plan_lines = plan.read_text().splitlines()
    stream = [(k, req_line(r)) for k, r in warm_keys if k in CACHEABLE]
    for i, r in enumerate(load["records"]):
        kind, mode, req = plan_lines[i].split(" ", 4)[2:]
        if mode == "N":  # the line the generator sent
            req = req_line({"query": "degrees", "params": {"window": r["window"]}})
        if kind in CACHEABLE:
            stream.append((kind, req))
    hit_share = render_hit_share([key for _, key in stream])
    distinct = {}
    for kind, key in stream:
        distinct.setdefault(kind, set()).add(key)
    beats = []
    if events.exists():
        for line in events.read_text().splitlines():
            t_us, w, v = line.split()
            beats.append((float(t_us) / 1e6, int(w), int(v)))
    return {"summary": summary, "responses": responses, "stats": stats, "beats": beats,
            "phase_s": load["phase_s"], "hit_share": hit_share,
            "distinct_by_type": {k: len(v) for k, v in sorted(distinct.items())},
            "distinct_keys": len({key for _, key in stream}),
            "page_cache": {k: after[k] - before[k] for k in after}}


def page_cache_counters(daemon):
    """The daemon's page-cache counters (its counter registry is always
    armed), read between phases by one `metrics` request."""
    c = Client(daemon.sock)
    counters = json.loads(c.request({"query": "metrics"}))["result"]["counters"]
    c.close()
    return {k: counters.get(f"cache.{k}", 0) for k in ("hits", "misses", "evictions")}


def sessions(runner, make_daemon, warm_keys, phase, batch_pass):
    """SESSIONS independent daemon sessions, each spawned, warmed up, put
    through `phase(daemon, i)` and stopped, interleaved with PASSES calls of
    `batch_pass(i)`, so the run's samples spread over its whole duration and
    one unlucky process or noisy spell on the host moves one sample only.
    A session whose generator fell behind its own bound is invalid: it is
    discarded and run again, up to SESSIONS more times."""
    out = []
    invalid = []
    i = 0
    while len(out) < SESSIONS:
        if i < PASSES:
            batch_pass(i)
        daemon = make_daemon(i)
        warm = warm_up(daemon, warm_keys)
        windows_start = daemon_windows(daemon)
        ph = phase(daemon, i)
        daemon.stop()
        late = ph["summary"]["late_p99_ms"]
        if late > GEN_LATE_BOUND_MS:
            invalid.append(late)
            if len(invalid) > SESSIONS:
                raise BenchError(f"generator p99 lateness {invalid} ms exceeded its "
                                 f"{GEN_LATE_BOUND_MS} ms bound in too many sessions")
        else:
            out.append({"index": i, "warm": warm, "phase": ph, "rss_mib": daemon.rss,
                        "windows_start": windows_start})
        i += 1
    for j in range(i, PASSES):
        batch_pass(j)
    runner.invalid_sessions = invalid
    return out


def session_summary(runs):
    """Set-up timings and peak RSS: medians over the sessions. Latency (not
    an end-to-end metric: too unsteady on a shared host, see README.md):
    per session the median over its 1000-request slices of each slice's p50
    and p99, then the median over the sessions."""
    return {"setup": {k: bl.median([r["warm"][k] for r in runs]) for k in runs[0]["warm"]},
            "rss_mib": bl.median([r["rss_mib"] for r in runs]),
            "query_p50_ms": bl.median([r["phase"]["summary"]["slice_p50_ms"] for r in runs]),
            "query_p99_ms": bl.median([r["phase"]["summary"]["slice_p99_ms"] for r in runs])}


def e2e_result(batch, setup_s, rss_mib, ingest_mpps):
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "archive_s": (batch["archive_s"], "s"),
        "compact_s": (batch["compact_s"], "s"),
        "report_s": (batch["report_s"], "s"),
        "compression_ratio": (batch["compression_ratio"], "x"),
        "ingest_mpps": (ingest_mpps, "Mpkt/s"),
    }


def campaign(runner, args, detail):
    """CAMPAIGN_ARCHIVES runs of `obscorr archive`, each followed by
    CAMPAIGN_PAIRS passes of `archive compact --all --stats` (on a fresh copy
    of the first raw archive) and `report --from` the compacted archive. Every
    archive run must write the first one's files."""
    if args.trace:
        traced_campaign(runner, args, detail)
        return None
    raw = runner.work / "campaign_raw"
    again = runner.work / "campaign_raw_again"
    comp = runner.work / "campaign"
    passes = BatchPasses(runner)
    for i in range(CAMPAIGN_ARCHIVES):
        passes.archive(raw if i == 0 else again, CAMPAIGN_LOG2_NV, args.seed)
        if i:
            if not archive_dir_equal(raw, again):
                raise BenchError("`obscorr archive` wrote other files on a repeat of the same seed")
            shutil.rmtree(again)
        for _ in range(CAMPAIGN_PAIRS):
            passes.compact(raw, comp, ["--all"])
            passes.report(comp)
    raw_report_check(runner, raw)
    batch = passes.result()
    detail["properties"] = {"valid_packets": CAMPAIGN_VALID, **passes.stats}
    detail["setup"] = {"prepare_s": passes.prepare_s}
    # Set-up is fixture preparation only: the fresh copy of the raw archive
    # each compaction rewrites. campaign has no ingest path of its own; its
    # ingest_mpps is the batch capture rate, valid packets over archive_s
    # (Table I shape), so it moves only with archive_s.
    return e2e_result(batch, bl.median(passes.prepare_s), passes.rss_mib,
                      CAMPAIGN_VALID / batch["archive_s"] / 1e6)


def raw_report_check(runner, raw):
    """The report from the compacted archive equals the raw archive's."""
    ref = runner.work / "raw_report"
    ref.mkdir()
    runner.obscorr("report", "--from", raw, "--out", ref)
    if not archive_dir_equal(ref, runner.work / "report0"):
        raise BenchError("report from the compacted archive differs from the raw archive's")


def traced_campaign(runner, args, detail):
    """Per-layer numbers of campaign. The three CLI steps, run with the
    program's --trace-out and --metrics-out, give each step's wall; the
    in-process decomposition (perfbench_tool campaign) gives the calls inside
    each step. The order CLI, decomposition, decomposition, CLI cancels a
    linear drift of the host's speed from the means. A step's unattributed
    row is its mean CLI wall minus the mean of its calls."""
    raw = runner.work / "campaign_raw"
    comp = runner.work / "campaign"
    walls = {"step.archive": [], "step.compact": [], "step.report": []}
    docs = []
    stats = None
    for i, kind in enumerate(("cli", "tool", "tool", "cli")):
        if kind == "tool":
            docs.append(decomposition(runner, args, raw, i))
            continue

        def traced(step, *cli_args):
            dt, text, _ = runner.obscorr(
                *cli_args, "--trace-out", runner.work / f"{step}{i}.trace.json",
                "--metrics-out", runner.work / f"{step}{i}.metrics.json")
            walls[f"step.{step}"].append(dt)
            return text

        shutil.rmtree(raw, ignore_errors=True)
        traced("archive", "archive", "--out", raw, "--log2-nv", CAMPAIGN_LOG2_NV,
               "--seed", args.seed)
        shutil.rmtree(comp, ignore_errors=True)
        shutil.copytree(raw, comp)
        st = parse_compact_stats(traced("compact", "archive", "compact", "--dir", comp,
                                        "--all", "--stats"))
        if stats is not None and st != stats:
            raise BenchError("compaction is not deterministic across passes")
        stats = st
        out = runner.work / f"report{i}"
        out.mkdir()
        traced("report", "report", "--from", comp, "--out", out)
        if i and not archive_dir_equal(runner.work / "report0", out):
            raise BenchError("report output differs between passes")
    raw_report_check(runner, raw)
    detail["properties"] = {"valid_packets": CAMPAIGN_VALID, **stats}

    runs = [[{"name": s["name"], "parent": s["parent"], "dur_s": s["dur_ns"] / 1e9}
             for s in d["spans"]] for d in docs]
    step_walls = {k: sum(v) / len(v) for k, v in walls.items()}
    rows, wall = bl.layer_table(runs, step_walls)

    def total(name):
        return sum(s["dur_s"] for spans in runs for s in spans if s["name"] == name) / len(runs)

    layers = {
        "netgen.population_s": total("netgen.population"),
        "core.snapshot_s": total("core.snapshot"),
        "core.snapshot_mpps": CAMPAIGN_VALID / total("core.snapshot") / 1e6,
        "honeyfarm.month_s": total("honeyfarm.month"),
        "archive.write_s": total("archive.write"),
        "archive.compact_s": total("archive.compact"),
        "archive.open_s": total("archive.open"),
        "archive.load_s": total("archive.load"),
        "core.degrees_s": total("core.degrees"),
        "core.peak_corr_s": total("core.peak_corr"),
        "core.fit_grid_s": total("core.fit_grid"),
    }
    # The program's own counters and spans, averaged over the decompositions.
    program = [program_layers({"counters": d["counters"], "gauges": d["gauges"],
                               "spans": d["program_spans"]}, span_events(d["trace"]), NPROC,
                              sum(s["dur_s"] for s in spans if s["parent"] < 0))
               for d, spans in zip(docs, runs)]
    layers.update({k: sum(p[k] for p in program) / len(program) for k in program[0]})
    unattributed = sum(r["self_s"] for r in rows if r["layer"] == "unattributed")
    layers["unattributed_s"] = unattributed
    layers["unattributed_share"] = unattributed / wall
    detail["layer_table"] = {"rows": rows, "wall_s": wall}
    detail["per_layer"] = layers
    # The traced CLI steps give the traced end-to-end numbers, minima like
    # the untraced ones.
    detail["traced_e2e"] = {f"{k[5:]}_s": min(v) for k, v in walls.items()}
    shutil.copy(docs[0]["trace"], runner.work / "campaign_trace.json")


def decomposition(runner, args, cli_raw, i):
    """One run of the in-process decomposition; its archive must equal the
    one `obscorr archive` wrote."""
    traw = runner.work / "traced_raw"
    shutil.rmtree(traw, ignore_errors=True)
    out = runner.work / f"campaign_layers{i}.json"
    trace = runner.work / f"campaign_trace{i}.json"
    runner.step([runner.bins["tool"], "campaign", "--log2-nv", CAMPAIGN_LOG2_NV,
                 "--seed", args.seed, "--threads", NPROC, "--raw", traw,
                 "--compacted", runner.work / "traced_compacted", "--out", out,
                 "--trace-out", trace])
    if not archive_dir_equal(cli_raw, traw):
        raise BenchError("traced decomposition's archive differs from `obscorr archive`'s")
    doc = json.loads(out.read_text())
    doc["trace"] = trace
    return doc


def serve(runner, args, rng, detail, live):
    passes = BatchPasses(runner)
    fixture = fixture_pass(runner, passes, args.seed, 0, not live)
    ips = observed_ips(runner, fixture)
    picks = rng.sample(ips, 16)
    windows, working_set = compacted_windows(runner, fixture)
    detail["properties"] = {"valid_packets": (5 << FIXTURE_LOG2_NV)
                            + FIXTURE_WINDOWS * 65536, **passes.stats,
                            "compacted_windows": windows}
    threads = max(1, NPROC - 1)
    if not live:
        # Warm every key of the small polling set, the first lookup alone:
        # after set-up every render is a cache hit.
        mix = dashboard_mix(picks)
        warm = [(k, r) for k, r, _ in mix if k == "lookup"][:1] + [(k, r) for k, r, _ in mix]
        extra = ["--ingest-windows", "0"]
        conns = NPROC
        rate = DASHBOARD_RATE
    else:
        # One request per key class; the phase's keys go past the render
        # cache's admission limit.
        rng.shuffle(ips)
        mix = live_mix(ips, windows)
        warm = [("lookup", {"query": "lookup", "params": {"ip": picks[0]}}),
                ("report", {"query": "report"}), ("scaling", {"query": "scaling"}),
                ("correlate", {"query": "correlate"}), ("stats", {"query": "stats"}),
                ("metrics", {"query": "metrics"})]
        extra = ["--ingest-windows", "1000000", "--cache-bytes", str(LIVE_CACHE_BYTES)]
        conns = max(1, NPROC - 1)  # plus the watcher
        rate = LIVE_RATE

    def make(i, telemetry=None):
        src = fixture
        if live:
            src = runner.work / f"live{i}"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(fixture, src)
        return Daemon(runner, src, threads, extra, telemetry)

    if args.trace:
        return traced_serve(runner, args, rng, detail, live, make, warm, mix, conns, rate,
                            passes.result())

    runs = sessions(runner, make, warm,
                    lambda d, i: serve_phase(runner, d, f"phase{i}", rng, mix, rate,
                                             args.seconds / SESSIONS, conns, warm, live),
                    lambda i: i and fixture_pass(runner, passes, args.seed, i, not live))
    batch = passes.result()
    last = runs[-1]["phase"]
    archive = runner.work / f"live{runs[-1]['index']}" if live else fixture
    detail["checked_renders"] = render_check(runner, archive, last["responses"], rng,
                                             "windows" if live else "snapshots")
    med = session_summary(runs)
    detail["setup"] = med["setup"]
    detail["latency"] = {k: med[k] for k in ("query_p50_ms", "query_p99_ms")}
    # The workload's properties, per measured session.
    props = detail["properties"]
    props.update({"cache_bytes": LIVE_CACHE_BYTES if live else 256 << 20,
                  # serve_live's page-cache reads are the compacted windows';
                  # serve_dashboard's are every entry (reports decode them all)
                  "decoded_working_set_bytes": working_set if live
                  else passes.stats["raw_bytes"]})
    for key, f in (("gen_late_p99_ms", lambda p: p["summary"]["late_p99_ms"]),
                   ("gen_backlog_max", lambda p: p["summary"]["backlog_max"]),
                   ("backlog_growing", lambda p: p["summary"]["growing"]),
                   ("distinct_keys", lambda p: p["distinct_keys"]),
                   ("distinct_keys_by_type", lambda p: p["distinct_by_type"]),
                   ("render_hit_share", lambda p: p["hit_share"]),
                   ("phase_page_cache", lambda p: p["page_cache"]),
                   ("phase_s", lambda p: p["phase_s"]),
                   ("live_windows_end", lambda p: p["stats"]["windows"])):
        props[key] = [f(r["phase"]) for r in runs]
    props["live_windows_start"] = [r["windows_start"] for r in runs]
    ingest = batch["ingest_mpps"]
    if live:
        props["ingest_mpps"] = [live_ingest_mpps([r["phase"]]) for r in runs]
        ingest = live_ingest_mpps([r["phase"] for r in runs])
    return e2e_result(batch, med["setup"]["setup_s"], med["rss_mib"], ingest)


def live_ingest_mpps(phases):
    """Valid packets in the heartbeats the watcher received during the
    phases over the phases' duration."""
    packets = 0
    for ph in phases:
        beats = [b for b in ph["beats"] if 0 <= b[0] <= ph["phase_s"]]
        if not beats:
            raise BenchError("no heartbeat reached the watcher during the phase")
        packets += sum(b[2] for b in beats)
    return packets / sum(ph["phase_s"] for ph in phases) / 1e6


def daemon_windows(daemon):
    c = Client(daemon.sock)
    n = json.loads(c.request({"query": "stats"}))["result"]["windows"]
    c.close()
    return n


def traced_serve(runner, args, rng, detail, live, make, warm, mix, conns, rate, batch):
    layers = {}
    if not live:
        # max_rps: an untraced daemon climbs a geometric ladder of rates.
        daemon = make(0)
        warm_up(daemon, warm)
        steps = []
        for r in bl.geometric_ladder(*LADDER):
            plan = runner.work / f"ladder{int(r)}.plan"
            # each step long enough for a p99 with ten samples beyond it
            write_plan(plan, rng, mix, r, max(LADDER_STEP_S, 1.1 * MIN_TAIL_SAMPLES / r), conns)
            load, _, _ = run_load(runner, daemon, f"ladder{int(r)}", plan, drain_ms=2000.0)
            s = summarize_load(load, r)
            gen_ok = s["late_p99_ms"] <= GEN_LATE_BOUND_MS
            steps.append({"rate": r, "p99_ms": s["p99_ms"], "growing": s["growing"] or not gen_ok,
                          "generator_ok": gen_ok})
            if s["p99_ms"] > LATENCY_LIMIT_MS or s["growing"] or not gen_ok:
                break
        daemon.stop()
        detail["max_rps"] = bl.ladder_max(steps, LATENCY_LIMIT_MS)
        detail["ladder"] = steps
    tele = runner.work / "telemetry"
    tele.mkdir()
    t0 = time.perf_counter()
    daemon = make(SESSIONS, tele)
    w = warm_up(daemon, warm)
    ph = serve_phase(runner, daemon, "traced", rng, mix, rate, args.seconds, conns, warm, live)
    c = Client(daemon.sock)
    engine = json.loads(c.request({"query": "stats"}))["result"]["latency"]
    c.close()
    daemon.stop()
    wall = time.perf_counter() - t0
    metrics = json.loads((tele / "metrics.json").read_text())
    events = span_events(tele / "trace.json")
    layers.update(program_layers(metrics, events, max(1, NPROC - 1), wall))
    layers.update(svc_layers(w, ph["summary"], engine, ph["hit_share"]))
    # Layer table: the sequential set-up step, then the phase's request
    # latency split into engine execution and the front end's remainder.
    setup_rows = [("svc.listen", w["listen_s"]), ("honeyfarm.database", w["database_s"]),
                  ("svc.first_render", w["first_render_s"])]
    unattributed = w["setup_s"] - sum(v for _, v in setup_rows)
    execute_total = sum(e["dur"] for e in events if e["name"] == "svc.query") / 1e6
    detail["layer_table"] = {"setup_s": w["setup_s"], "setup_rows": setup_rows,
                             "setup_unattributed_s": unattributed,
                             "phase_s": ph["phase_s"], "execute_total_s": execute_total,
                             "ingest_total_s": sum(e["dur"] for e in events
                                                   if e["name"] == "svc.ingest_window") / 1e6}
    layers["unattributed_s"] = unattributed
    layers["unattributed_share"] = unattributed / w["setup_s"]
    detail["per_layer"] = layers
    ingest = live_ingest_mpps([ph]) if live else batch["ingest_mpps"]
    detail["traced_e2e"] = {"setup_s": w["setup_s"],
                            "query_p50_ms": ph["summary"]["slice_p50_ms"],
                            "query_p99_ms": ph["summary"]["slice_p99_ms"], "ingest_mpps": ingest}
    shutil.copy(tele / "trace.json", runner.work / "serve_trace.json")
    return None


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run's full detail to this JSON-lines file")
    ap.add_argument("--keep", action="store_true", help="keep the work directory")
    args = ap.parse_args()

    # A terminated run still stops its daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    runner = None
    work = None
    try:
        build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        if not build_dir.is_absolute():
            build_dir = ROOT / build_dir
        t0 = time.perf_counter()
        bins = build(build_dir)
        log(f"build: {time.perf_counter() - t0:.1f} s (up to date when ~1 s)")
        work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        os.chdir(work)
        runner = Runner(bins, work)
        rng = random.Random(args.seed)
        detail = {}
        if args.workload == "campaign":
            e2e = campaign(runner, args, detail)
        else:
            e2e = serve(runner, args, rng, detail, args.workload == "serve_live")
    except BaseException as e:  # every failure: stop what we started, report no result
        if runner:
            runner.stop_all()
        if not isinstance(e, (BenchError, subprocess.TimeoutExpired, OSError, SystemExit)):
            traceback.print_exc()
        print(f"error: {'terminated' if isinstance(e, SystemExit) else e}", file=sys.stderr)
        os.chdir(ROOT)
        if work and not args.keep:
            shutil.rmtree(work, ignore_errors=True)
        return 1

    if args.trace:
        per_layer = detail["per_layer"]
        metrics = {k: {"value": float(per_layer.get(k, 0.0)), "unit": layer_unit(k)}
                   for k in PER_LAYER}
    else:
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in e2e.items()}
    report(args, runner, detail, metrics)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "attempted": runner.attempted, "failed": runner.failed,
                                "metrics": {k: v["value"] for k, v in metrics.items()},
                                "detail": jsonable(detail)}) + "\n")
    if args.trace:
        for name in ("campaign_trace.json", "serve_trace.json"):
            if (work / name).exists():
                kept = ROOT / ".bench_work" / f"{args.workload}.trace.json"
                shutil.copy(work / name, kept)
                log(f"  Perfetto trace: {kept}")
    os.chdir(ROOT)
    if not args.keep:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mpps"):
        return "Mpkt/s"
    if name.endswith("_rps"):
        return "req/s"
    if name.endswith(("_ratio", "_frac", "_share")):
        return "fraction"
    if name.endswith("bytes_written") or name.endswith("_per_req"):
        return "bytes"
    return "count"


def jsonable(x):
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, float) and x == bl.INF:
        return "inf"
    if isinstance(x, Path):
        return str(x)
    return x


def report(args, runner, detail, metrics):
    """Human-readable summary ahead of the result line."""
    log(f"== {args.workload} seed {args.seed} trace {args.trace} ==")
    for k, v in metrics.items():
        log(f"  {k:32s} {v['value']:14.6g} {v['unit']}")
    for k, v in detail.get("latency", {}).items():
        log(f"  {k:32s} {v:14.6g} ms  (not gated)")
    if "max_rps" in detail:
        log(f"  {'svc.max_rps':32s} {detail['max_rps']:14.6g} req/s  (not gated)")
    if runner.invalid_sessions:
        log(f"  sessions discarded (generator p99 lateness, ms): {runner.invalid_sessions}")
    fail_frac = runner.failed / runner.attempted
    log(f"  {'fail_frac':32s} {fail_frac:14.6g} -  ({runner.failed} of {runner.attempted})")
    for k, v in detail.get("properties", {}).items():
        log(f"  property {k}: {v}")
    lt = detail.get("layer_table")
    if lt and "rows" in lt:
        log(f"  layer table (traced wall {lt['wall_s']:.3f} s)")
        for r in lt["rows"]:
            log(f"    {r['step']:14s} {r['layer']:20s} calls {r['calls']:3d} "
                f"self {r['self_s']:9.4f} s  share {100 * r['share']:6.2f}%")
    elif lt:
        log(f"  layer table: set-up {lt['setup_s']:.3f} s")
        for name, v in lt["setup_rows"] + [("unattributed", lt["setup_unattributed_s"])]:
            log(f"    setup          {name:20s} {v:9.4f} s  share {100 * v / lt['setup_s']:6.2f}%")
        log(f"    phase {lt['phase_s']:.3f} s: engine execution {lt['execute_total_s']:.4f} s "
            f"summed over requests, ingest windows {lt['ingest_total_s']:.4f} s")


if __name__ == "__main__":
    sys.exit(main())
