#!/usr/bin/env python3
"""Summarize run.py --record files into the committed results.

    python3 perfbench/summarize.py RECORDS.jsonl [...] [--commit SHA]
                                   [--trajectory perfbench/history/trajectory.jsonl]
                                   [--layers perfbench/history/layers.md]

Appends one trajectory row (commit, host fingerprint, and per workload the
median and quartiles of every end-to-end metric over the --trace 0 runs,
plus the ungated query latencies) and rewrites the layer report: median
per-layer metrics of the --trace 1 runs, the traced layer table of the
first traced run per workload, and the tracing overhead (traced minus
untraced median of each metric the traced run also measures).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402


def summaries(rows, trace, field=lambda r: r["metrics"]):
    """{workload: {metric: {n, median, q1, q3, spread}}} over runs at `trace`,
    of the values `field` picks from each record."""
    values = {}
    for r in rows:
        if r["trace"] != trace:
            continue
        for k, v in field(r).items():
            values.setdefault(r["workload"], {}).setdefault(k, []).append(v)
    out = {}
    for w, metrics in values.items():
        out[w] = {}
        for k, vs in metrics.items():
            q1, q2, q3 = bl.quartiles(vs)
            out[w][k] = {"n": len(vs), "median": q2, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / q2 if q2 else 0.0}
    return out


def first_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        return "unknown"


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "kernel": platform.release(),
            "compiler": first_line(["c++", "--version"]), "build_type": "Release"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("records", nargs="+")
    ap.add_argument("--commit", default=None)
    here = Path(__file__).resolve().parent
    ap.add_argument("--trajectory", default=str(here / "history" / "trajectory.jsonl"))
    ap.add_argument("--layers", default=str(here / "history" / "layers.md"))
    args = ap.parse_args()

    rows = [json.loads(l) for f in args.records for l in Path(f).read_text().splitlines() if l]
    commit = args.commit or first_line(["git", "-C", str(here), "rev-parse", "HEAD"])
    e2e = summaries(rows, 0)
    latency = summaries(rows, 0, lambda r: r["detail"].get("latency", {}))

    def table(summary):
        return {w: {k: {x: round(v[x], 6) for x in ("median", "q1", "q3")} | {"n": v["n"]}
                    for k, v in sorted(ms.items())} for w, ms in sorted(summary.items())}

    row = {"commit": commit, "date": time.strftime("%Y-%m-%d"), "host": host_fingerprint(),
           "run_seconds": sorted({r["seconds"] for r in rows}),
           "workloads": table(e2e), "latency_not_gated": table(latency)}
    Path(args.trajectory).parent.mkdir(parents=True, exist_ok=True)
    with open(args.trajectory, "a") as f:
        f.write(json.dumps(row) + "\n")

    traced = summaries(rows, 1)
    lines = [f"# Traced layer table ({commit[:12]})", "",
             f"Host: {row['host']['cpu']}, {row['host']['nproc']} CPUs, kernel "
             f"{row['host']['kernel']}, {row['host']['compiler']}, Release.", ""]
    for w in sorted(traced):
        recs = [r for r in rows if r["workload"] == w and r["trace"] == 1]
        lines += [f"## {w}", "", f"{len(recs)} traced run(s); per-layer medians:", "",
                  "| metric | median | q1 | q3 |", "|---|---|---|---|"]
        for k, v in traced[w].items():
            lines.append(f"| `{k}` | {v['median']:.6g} | {v['q1']:.6g} | {v['q3']:.6g} |")
        lt = recs[0]["detail"].get("layer_table", {})
        if "rows" in lt:
            lines += ["", f"Layer table of seed {recs[0]['seed']}: mean self time of each call "
                      "over two in-process decompositions; each step's `unattributed` row is the "
                      "mean wall of the traced CLI step minus the mean of its calls; traced wall "
                      f"(sum of the CLI steps' walls) {lt['wall_s']:.3f} s.", "",
                      "| step | layer | calls | total s | self s | share of wall |",
                      "|---|---|---|---|---|---|"]
            for r in lt["rows"]:
                lines.append(f"| {r['step']} | {r['layer']} | {r['calls']} | "
                             f"{r['total_s']:.4f} | {r['self_s']:.4f} | {100 * r['share']:.2f}% |")
            shares = [r["metrics"]["unattributed_share"] for r in recs]
            lines += ["", f"Unattributed share of traced wall: median "
                      f"{100 * bl.median(shares):.1f}% over {len(shares)} traced run(s) ("
                      + ", ".join(f"{100 * v:.1f}%" for v in shares) + ")."]
        elif lt:
            lines += ["", f"Set-up of seed {recs[0]['seed']} ({lt['setup_s']:.3f} s):", "",
                      "| layer | s |", "|---|---|"]
            for name, v in lt["setup_rows"]:
                lines.append(f"| {name} | {v:.4f} |")
            lines.append(f"| unattributed | {lt['setup_unattributed_s']:.4f} |")
            lines += ["", f"Phase of {lt['phase_s']:.3f} s: engine execution "
                      f"{lt['execute_total_s']:.4f} s summed over requests (span `svc.query`), "
                      f"ingest windows {lt['ingest_total_s']:.4f} s (span `svc.ingest_window`)."]
        overhead = []
        for k in sorted({k for r in recs for k in r["detail"].get("traced_e2e", {})}):
            tv = [r["detail"]["traced_e2e"][k] for r in recs if k in r["detail"].get("traced_e2e", {})]
            base = e2e.get(w, {}).get(k) or latency.get(w, {}).get(k)
            if base:
                t = bl.median(tv)
                overhead.append(f"| `{k}` | {base['median']:.6g} | {t:.6g} | "
                                f"{t - base['median']:+.6g} ({100 * (t / base['median'] - 1):+.1f}%) |")
        if overhead:
            lines += ["", "Tracing overhead (traced minus untraced median):", "",
                      "| metric | untraced | traced | overhead |", "|---|---|---|---|"] + overhead
        lines.append("")
    Path(args.layers).write_text("\n".join(lines))
    for summary in (e2e, latency):
        for w, ms in sorted(summary.items()):
            for k, v in sorted(ms.items()):
                print(f"{w:16s} {k:20s} n={v['n']:2d} median {v['median']:12.6g} "
                      f"spread {100 * v['spread']:6.2f}%")


if __name__ == "__main__":
    main()
