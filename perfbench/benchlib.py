"""Arithmetic of the end-to-end benchmark: percentiles, summaries, ladder and
backlog rules, and the layer table. Pure functions over plain numbers, so
tests/synthetic inputs can pin every rule (see test_benchlib.py)."""

import math
import statistics

INF = math.inf

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100). Failed requests enter as
    +inf, so they count as missing every latency limit."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(count, wanted=99.0):
    """The highest percentile <= `wanted`, among 99.9/99/95/90/50, with at
    least MIN_BEYOND samples beyond it; None when even the median has not."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if q <= wanted and count * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return None


def latency_summary(values):
    """Median and p99 of a latency sample; p99 only when it has MIN_BEYOND
    samples beyond it, else the highest percentile that has."""
    out = {"count": len(values), "p50": percentile(values, 50.0) if values else INF}
    q = tail_quantile(len(values))
    out["tail_q"] = q
    out["tail"] = percentile(values, q) if q is not None else INF
    return out


def chunked_latency(values, chunk=1000):
    """Median, over consecutive `chunk`-request slices of a phase (in due
    order; a short remainder joins the last slice), of each slice's p50 and
    p99. A slice of 1000 has ten samples beyond its p99. A host hiccup then
    moves one slice's percentiles rather than the phase's tail."""
    if len(values) < chunk:
        raise ValueError(f"{len(values)} samples, fewer than one {chunk}-sample slice")
    count = len(values) // chunk
    slices = [values[i * chunk:(i + 1) * chunk] for i in range(count - 1)]
    slices.append(values[(count - 1) * chunk:])
    return {"slices": count,
            "p50": median([percentile(s, 50.0) for s in slices]),
            "p99": median([percentile(s, 99.0) for s in slices])}


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else INF


def backlog_samples(requests, start, end, points=20):
    """Backlog at `points` evenly spaced instants of [start, end): requests
    already due but not yet answered. `requests` holds (due, done) pairs;
    done is +inf for a request never answered."""
    out = []
    for i in range(points):
        t = start + (end - start) * (i + 0.5) / points
        out.append(sum(1 for due, done in requests if due <= t < done))
    return out


def backlog_growing(samples, offered):
    """True when the backlog of a step grows: the mean of its last quarter
    exceeds that of its first quarter by more than max(8, 2% of the requests
    offered in the step)."""
    k = max(1, len(samples) // 4)
    head = sum(samples[:k]) / k
    tail = sum(samples[-k:]) / k
    return tail - head > max(8.0, 0.02 * offered)


def ladder_max(steps, limit_ms):
    """Highest rate of an ascending ladder whose p99 meets `limit_ms` with no
    growing backlog, stopping at the first step that fails. `steps` holds
    dicts with rate, p99_ms and growing; returns 0 when the first step fails."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s["rate"]):
        if step["p99_ms"] > limit_ms or step["growing"]:
            break
        best = step["rate"]
    return best


def geometric_ladder(lo, hi, factor):
    rates = []
    r = float(lo)
    while r <= hi * (1 + 1e-9):
        rates.append(r)
        r *= factor
    return rates


def layer_table(runs, step_walls):
    """Self time per benchmark span and an unattributed row per step.

    `runs` holds the span lists of repeated decompositions: dicts with name,
    parent (index or -1) and dur_s, in creation order; top-level spans are
    steps. `step_walls` maps each step to its wall time measured outside the
    decomposition (the CLI step's own process wall). A span's self time is
    its duration minus that of its direct children; rows are aggregated by
    (step, name) and averaged over the runs. A step's unattributed row is its
    wall minus the mean summed duration of the calls directly inside it:
    what the decomposition does not cover (process start and exit, output
    writing, glue). It is reported as measured, negative when noise between
    the two measurements exceeds the remainder. Shares are of the summed
    step walls.
    """
    rows = {}
    covered = {}
    for spans in runs:
        children = {}
        for i, s in enumerate(spans):
            children.setdefault(s["parent"], []).append(i)
        step_of = {}
        for i, s in enumerate(spans):
            p = s["parent"]
            step_of[i] = i if p < 0 else step_of[p]
            if p < 0:
                continue
            step = spans[step_of[i]]["name"]
            self_s = s["dur_s"] - sum(spans[c]["dur_s"] for c in children.get(i, []))
            row = rows.setdefault((step, s["name"]), {"step": step, "layer": s["name"],
                                                      "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s["dur_s"]
            row["self_s"] += self_s
            if spans[p]["parent"] < 0:
                covered[step] = covered.get(step, 0.0) + s["dur_s"]
    n = len(runs)
    out = []
    for step, wall_s in step_walls.items():
        out.append({"step": step, "layer": "unattributed", "calls": 1, "total_s": wall_s,
                    "self_s": wall_s - covered.get(step, 0.0) / n})
        for r in rows.values():
            if r["step"] == step:
                out.append({**r, "calls": r["calls"] // n, "total_s": r["total_s"] / n,
                            "self_s": r["self_s"] / n})
    wall = sum(step_walls.values())
    for r in out:
        r["share"] = r["self_s"] / wall if wall > 0 else 0.0
    return out, wall
