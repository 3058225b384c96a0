"""Metrics of a run: the end-to-end set, the per-layer set, and the report.

Each per-layer metric names the end-to-end metric it should move:

codebook.build_ms                 setup_s, every workload
decodability.classify_ms          wall_norm_s on pipeline; barely trials_per_s
decodability.classify_k16_ms        (the same, on the k=16 codes only)
decodability.hurwitz_radon_ms     wall_norm_s on pipeline
lattice.lattice_profile_s,
lattice.box_vectors(_per_s)       wall_norm_s on pipeline
lattice.min_rank_s,
lattice.min_rank_vectors_per_s    wall_norm_s on pipeline
simulate.trials_per_s,
simulate.calibrate_noise_s/_calls wall_norm_s on pipeline, not on search
                                  (calibration per round)
simulate.sphere_decode_ms.p50/.ptail,
simulate.nodes_*                  wall_norm_s on search
simulate.sphere_decode_fixed_us   (fit intercept: equivalent channel, QR,
                                   block split) wall_norm_s on pipeline
simulate.sphere_decode_ns_per_node  (fit slope: the search) wall_norm_s on search
simulate.ml_exhaustive_ms,
simulate.ml_points_per_s          wall_norm_s on pipeline
simulate.draw_channel_ms          wall_norm_s on pipeline
cli.zoo_s                         wall_norm_s on pipeline
trace.overhead_s/_frac            traced minus untraced time of the same work

``box_vectors`` and the vectors behind ``min_rank_vectors_per_s`` are
computed counts, not measured ones.  A figure of a layer that the workload
does not reach comes from the small probe calls of workloads.probe_round.
"""

from __future__ import annotations

import json
import math
import statistics

from spans import fit_fixed_and_slope, median, tail
from workloads import METRIC_ROUNDS, SEARCH

END_TO_END_UNITS = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}
# About what workloads.reference_loop takes on a 2-core Xeon VM with
# Python 3.11.7; it only sets the scale of wall_norm_s.
REFERENCE_S = 0.008

PER_LAYER_UNITS = {
    "codebook.build_ms": "ms",
    "decodability.classify_ms": "ms",
    "decodability.classify_k16_ms": "ms",
    "decodability.hurwitz_radon_ms": "ms",
    "lattice.lattice_profile_s": "s",
    "lattice.box_vectors": "count",
    "lattice.box_vectors_per_s": "1/s",
    "lattice.min_rank_s": "s",
    "lattice.min_rank_vectors_per_s": "1/s",
    "simulate.trials_per_s": "1/s",
    "simulate.calibrate_noise_s": "s",
    "simulate.calibrate_noise_calls": "count",
    "simulate.draw_channel_ms": "ms",
    "simulate.sphere_decode_ms.p50": "ms",
    "simulate.sphere_decode_ms.ptail": "ms",
    "simulate.sphere_decode_fixed_us": "us",
    "simulate.sphere_decode_ns_per_node": "ns",
    "simulate.nodes_total": "count",
    "simulate.nodes_max": "count",
    "simulate.nodes_per_s": "1/s",
    "simulate.nodes_over_Lkprime": "ratio",
    "simulate.ml_exhaustive_ms": "ms",
    "simulate.ml_points_per_s": "1/s",
    "simulate.worst_trial_share": "ratio",
    "simulate.worst_trial_nodes": "count",
    "cli.zoo_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def wall_seconds(workload, round_units) -> float:
    """wall_s, from the first METRIC_ROUNDS rounds, which are the same work
    in every run.

    Each timed call (a trial on search; a run_campaign, CLI or library call
    on pipeline) counts at its fastest time over those rounds:
    every round repeats the same inputs, and a shared machine only ever
    adds time.  Pipeline sums these times over the calls.  On search the
    heaviest trials are timed in round 0 only (workloads.LIGHT_SHARE).

    Search takes, for each code, the geometric mean over its trials, and
    sums over the codes.  A campaign's total is ruled by its few deepest
    trials (one trial can carry three quarters of the nodes), so it differs
    from seed to seed by more than any useful bound; the geometric mean
    weighs every trial, deep ones too, and settles within a few hundred
    trials.  Campaign totals are printed beside it.
    """
    fastest = {}
    for units in round_units[:METRIC_ROUNDS[workload]]:
        for name, seconds in units.items():
            if name == "reference":
                continue
            best = fastest.setdefault(name, {})
            pairs = seconds.items() if isinstance(seconds, dict) else enumerate(seconds)
            for key, t in pairs:
                best[key] = min(t, best.get(key, t))
    if workload == "search":
        return sum(geomean(list(fastest.get(c.code, {}).values())) for c in SEARCH)
    return sum(sum(best.values()) for best in fastest.values())


def reference_seconds(workload, round_units) -> float:
    """The reference loop's time in the metric rounds, taken at the same
    depth as wall_seconds takes each call: the expected fastest of N
    samples, N the number of metric rounds, lies near the 1/(N+1)
    quantile."""
    n = METRIC_ROUNDS[workload]
    samples = [t for units in round_units[:n] for t in units.get("reference", [])]
    return statistics.quantiles(samples, n=n + 1)[0]


def end_to_end(workload, setup_times, round_units, peak_rss_mb):
    """wall_norm_s is wall_s scaled to a machine on which the reference loop
    takes REFERENCE_S: the machine's drift moves both, the program's speed
    only wall_s.  The raw figures are in the report."""
    wall = wall_seconds(workload, round_units)
    reference = reference_seconds(workload, round_units)
    values = {
        "setup_s": median(setup_times),
        "wall_norm_s": wall * REFERENCE_S / reference,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, END_TO_END_UNITS, {"wall_s": wall, "reference_s": reference}


def summary(workload, ctx, round_units) -> dict:
    """Figures printed beside the end-to-end metrics, with no bound."""
    components = {}
    for units in round_units[:METRIC_ROUNDS[workload]]:
        for name, seconds in units.items():
            if name == "reference":
                continue
            components.setdefault(name, []).extend(
                seconds.values() if isinstance(seconds, dict) else seconds
            )
    out = {"components": {
        name: {"median_s": median(v), "geomean_s": geomean(v), "tail_s": tail(v)[0],
               "tail_pct": tail(v)[1], "samples": len(v), "total_s": sum(v)}
        for name, v in components.items()
    }}
    if ctx.rc_trials:
        out["trials_per_s"] = ctx.rc_trials / ctx.rc_seconds
        out["trials"] = ctx.rc_trials
    if workload == "search":
        # what a user waits for: one campaign, its calibration and classify
        # included, heavy tail and all
        first = ctx.campaigns[:len(SEARCH)]
        out["campaign_s"] = {r["campaign"]: r["seconds"] for r in first}
        trials = sum(r["trials"] for r in first)
        out["trials_per_s"] = trials / sum(r["seconds"] for r in first)
        out["trials"] = trials
    if "cli zoo" in components:
        out["zoo_s"] = median(components["cli zoo"])
    return out


def worst_trials(ctx) -> dict:
    """The worst trial of each campaign, with what replays it, and a flag
    when one trial carries more than half of its campaign's nodes."""
    records = [dict(c["worst_trial"], campaign=c["campaign"], seed=c["seed"])
               for c in ctx.campaigns]
    heavy = [r for r in records if r["share"] > 0.5]
    worst = max(records, key=lambda r: r["share"], default=None)
    return {"max_share": worst, "over_half": len(heavy), "campaigns": len(records),
            "records": records}


def per_layer(ctx, rounds):
    """Per-layer figures from one traced context; None where the context
    has no call of that layer.  Counts and per-round sums are divided by
    the number of rounds, which all repeat the same inputs."""
    d = ctx.tracer.durations
    ms = 1e3
    values = dict.fromkeys(PER_LAYER_UNITS)

    def med(name, scale=1.0, tags=None):
        spans = d(name, tags)
        return median(spans) * scale if spans else None

    values["codebook.build_ms"] = med("codebook.build", ms)
    values["decodability.classify_ms"] = med("decodability.classify", ms)
    k16 = {name for name, basis in ctx.bases.items() if basis.k == 16}
    values["decodability.classify_k16_ms"] = med("decodability.classify", ms, k16)
    values["decodability.hurwitz_radon_ms"] = med("decodability.hurwitz_radon", ms)

    lp = d("lattice.lattice_profile")
    if lp:
        values["lattice.lattice_profile_s"] = median(lp)
        values["lattice.box_vectors"] = ctx.box_vectors / len(lp)
        values["lattice.box_vectors_per_s"] = ctx.box_vectors / sum(lp)
    mr = d("lattice.min_rank_sampled")
    if mr:
        values["lattice.min_rank_s"] = median(mr)
        values["lattice.min_rank_vectors_per_s"] = ctx.min_rank_vectors / sum(mr)

    if ctx.rc_trials:
        values["simulate.trials_per_s"] = ctx.rc_trials / ctx.rc_seconds
    cal = d("simulate.calibrate_noise")
    if cal:
        values["simulate.calibrate_noise_s"] = sum(cal) / rounds
        values["simulate.calibrate_noise_calls"] = len(cal) / rounds
    values["simulate.draw_channel_ms"] = med("simulate.draw_channel", ms)

    if ctx.sphere:
        nodes = [n for n, _ in ctx.sphere]
        seconds = [t for _, t in ctx.sphere]
        fixed, slope = fit_fixed_and_slope(nodes, seconds)
        values.update({
            "simulate.sphere_decode_ms.p50": median(seconds) * ms,
            "simulate.sphere_decode_ms.ptail": tail(seconds)[0] * ms,
            "simulate.sphere_decode_fixed_us": fixed * 1e6,
            "simulate.sphere_decode_ns_per_node": slope * 1e9,
            "simulate.nodes_total": sum(nodes) / rounds,
            "simulate.nodes_max": max(nodes),
            "simulate.nodes_per_s": sum(nodes) / sum(seconds),
        })
    ratios = [c["nodes_per_trial_over_Lkprime"] for c in ctx.campaigns]
    if ratios:
        values["simulate.nodes_over_Lkprime"] = sum(ratios) / len(ratios)
    if ctx.ml:
        seconds = [t for _, t in ctx.ml]
        values["simulate.ml_exhaustive_ms"] = median(seconds) * ms
        values["simulate.ml_points_per_s"] = sum(p for p, _ in ctx.ml) / sum(seconds)
    worst = worst_trials(ctx)["max_share"]
    if worst:
        values["simulate.worst_trial_share"] = worst["share"]
        values["simulate.worst_trial_nodes"] = worst["nodes"]

    values["cli.zoo_s"] = med("cli.zoo")
    if ctx.untraced_s:
        values["trace.overhead_s"] = ctx.traced_s - ctx.untraced_s
        values["trace.overhead_frac"] = values["trace.overhead_s"] / ctx.untraced_s
    return values


def checks(ctx) -> dict:
    """Counts of the traced run's checks, for the report."""
    seconds = [t for _, t in ctx.sphere]
    _, pct, n = tail(seconds)
    return {
        "sphere_ml_compared": ctx.exact_compared,
        "sphere_ml_mismatches": ctx.exact_mismatches,
        "rows_reproduced": ctx.rows_reproduced,
        "sphere_decode_calls": n,
        "sphere_decode_ptail_pct": pct,
        "spans": sum(1 for s in ctx.tracer.spans if s is not None),
    }


def print_report(report, units_of):
    print(f"stlattice benchmark: workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} rounds={report['rounds']} timed={report['timed_s']:.1f}s")
    print("environment: " + json.dumps(report["environment"]))
    for name, c in report.get("components", {}).items():
        print(f"  {name}: median {c['median_s']:.6g} s, geomean {c['geomean_s']:.6g} s, "
              f"p{c['tail_pct']:.1f} {c['tail_s']:.6g} s, total {c['total_s']:.6g} s, "
              f"{c['samples']} samples")
    for key in ("wall_s", "reference_s", "campaign_s", "trials_per_s", "trials", "zoo_s",
                "checks", "probed"):
        if key in report:
            value = report[key]
            print(f"  {key}: {value:.6g}" if isinstance(value, float) else f"  {key}: {value}")
    for name, value in report["metrics"].items():
        print(f"  {name} = {value:.6g} {units_of[name]}")
    worst = report["worst_trials"]
    if worst["max_share"]:
        w = worst["max_share"]
        print(f"  worst trial: {w['campaign']} seed={w['seed']} snr_index={w['snr_index']} "
              f"trial={w['trial']} nodes={w['nodes']} share={w['share']:.2f} "
              f"(replay with {w['replay']})")
        if worst["over_half"]:
            print(f"  STEADINESS HAZARD: in {worst['over_half']} of {worst['campaigns']} "
                  "campaigns one trial carries more than half of the nodes")
    if report["cut"]:
        print(f"  CUT at the hard time limit: {report['cut']}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
