"""The two benchmark workloads and the checks on their outputs.

Every workload is a sequence of rounds, and every round of a run works on
the same inputs, drawn from the run's seed; so the rounds that the metrics
use are the same work whatever the number of rounds a run completes.
Before timing, each workload runs one reference round on
``REFERENCE_SEED`` and compares its outputs with ``references.json``; that
round also warms caches and lazy set-up.

* search    sphere-only campaigns, PAM-4 at 10 dB, on srinath_rajan (k'=10)
            and mido_a4 (k'=12), SEARCH_TRIALS trials each.  Tree search
            dominates and its cost per trial is heavy-tailed, so the trials
            are driven from here through the public functions, the loop
            run_campaign runs, and each is timed.  The first round runs
            every trial; later rounds time again only the LIGHT_SHARE of
            trials with the fewest nodes, which cost a small part of the
            round, so that each of those is timed several times in a run.
            0 dB is left out: one trial there visits tens of millions of
            nodes and the decoder has no node budget.
* pipeline  everything but deep tree search, in two parts.  Campaigns:
            golden and alamouti with both decoders, silver and mimo_relay
            sphere-only, each one run_campaign call: many light trials, the
            ML grid and the noise calibration.  Code characterisation
            without decoding: CLI zoo, analyze of every code, lattice
            golden/silver at bound 3, and min_rank_sampled on srinath_rajan.
            The two parts share one workload so that the benchmark's few
            runs can each be long enough to be steady on a shared machine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from stlattice import (
    REGISTRY,
    SimCampaign,
    bounds_check,
    build,
    calibrate_noise,
    classify,
    cli,
    default_config,
    draw_channel,
    hurwitz_radon,
    lattice_profile,
    min_rank_sampled,
    ml_exhaustive,
    pam,
    run_campaign,
    sphere_decode,
)

from spans import NullTracer

REFERENCE_SEED = 0
CALIBRATION_SAMPLES = 100_000  # run_campaign's default
EXACT_CHECK_LIMIT = 2**16  # trials with L^k up to this are checked against ML
LATTICE_CODES = ("golden", "silver")
LATTICE_BOUND = 3
MIN_RANK_CODE = "srinath_rajan"
MIN_RANK_NONZEROS = 3
MIN_RANK_RANDOM = 500_000
ZOO_TRIALS = 20  # the CLI's default channel samples for classify
SEARCH_TRIALS = 600
# Share of a search campaign's trials, the ones with the fewest nodes, that
# rounds after the first time again.  The rest carry most of a round's time.
LIGHT_SHARE = 0.9
# Rounds that the end-to-end metrics use; every run completes them, and
# then repeats the round until its time is up.
METRIC_ROUNDS = {"search": 4, "pipeline": 4}
# The reference loop (see reference_loop): its length, and on search the
# number of timed trials between two of its samples.
REFERENCE_LOOP = 100_000
REFERENCE_EVERY = 20
# Small calls that give a traced run the per-layer figures of the layers
# its workload does not reach.
PROBE_LATTICE_BOUND = 2
PROBE_MIN_RANK_RANDOM = 20_000


@dataclass(frozen=True)
class Campaign:
    code: str
    pam: int
    decoder: str
    snrs: tuple
    trials: int

    @property
    def label(self) -> str:
        snrs = "/".join(f"{s:g}" for s in self.snrs)
        return f"{self.code}:pam{self.pam}:{self.decoder}:{snrs}dB:{self.trials}"


SEARCH = (
    Campaign("srinath_rajan", 4, "sphere", (10.0,), SEARCH_TRIALS),
    Campaign("mido_a4", 4, "sphere", (10.0,), SEARCH_TRIALS),
)
SEARCH_REFERENCE = tuple(dataclasses.replace(c, trials=40) for c in SEARCH)

PIPELINE = (
    Campaign("golden", 4, "both", (20.0,), 150),
    Campaign("alamouti", 4, "both", (0.0, 10.0, 20.0), 100),
    Campaign("silver", 4, "sphere", (20.0,), 200),
    Campaign("mimo_relay", 2, "sphere", (0.0, 10.0, 20.0), 30),
)
# Short, for the reference round: a full one would cost as much as a timed
# round, mostly in mimo_relay's calibration at every SNR point.
PIPELINE_REFERENCE = tuple(
    dataclasses.replace(c, snrs=c.snrs[-1:], trials=10) for c in PIPELINE
)

PROBE_CAMPAIGNS = (Campaign("golden", 4, "both", (20.0,), 10),)

CODES = {"search": tuple(c.code for c in SEARCH), "pipeline": tuple(REGISTRY)}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tally:
    """Operations attempted and failed; an operation is one campaign, one
    CLI call or one library call, and it fails on an exception or on an
    output that differs from its reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def error(self, what: str, exc: Exception):
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Context:
    """State shared by the rounds of one run."""

    bases: dict
    tracer: object
    tally: Tally
    references: dict  # the whole of references.json
    progress: dict = field(default_factory=dict)  # what is running now
    # component -> seconds, this round: a list of call times, or on search
    # a dict of trial times keyed by trial index
    units: dict = field(default_factory=dict)
    trial_log: dict = field(default_factory=dict)  # search: round 0's trials
    sample_reference: bool = False  # untraced timed rounds: run reference_loop
    campaigns: list = field(default_factory=list)  # per-campaign records
    rc_seconds: float = 0.0  # time inside run_campaign
    rc_trials: int = 0
    untraced_s: float = 0.0  # traced runs: the work without spans ...
    traced_s: float = 0.0  # ... and with them, extra spans excluded
    sphere: list = field(default_factory=list)  # (nodes, seconds) per call
    ml: list = field(default_factory=list)  # (grid points, seconds) per call
    box_vectors: int = 0
    min_rank_vectors: int = 0
    exact_compared: int = 0
    exact_mismatches: int = 0
    rows_reproduced: int = 0

    def basis(self, name):
        if name not in self.bases:
            self.bases[name] = build(name)
        return self.bases[name]


# ----------------------------------------------------------------------
# Campaigns replayed through the public functions.


def reference_loop(ctx: Context) -> float:
    """Time a fixed pure-Python loop, into ctx.units["reference"], and
    return its time (0 when the context takes no samples).

    The benchmark runs on a shared machine whose speed drifts by tens of
    percent over minutes.  The loop is the benchmark's own code, so its time
    follows the machine and not the program; metrics.end_to_end scales the
    workload's time by it.  The samples sit between timed calls, never
    inside one.
    """
    if not ctx.sample_reference:
        return 0.0
    t0 = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    seconds = perf_counter() - t0
    ctx.units.setdefault("reference", []).append(seconds)
    return seconds


def _noise(rng, sigma_n, n_r, T):
    return sigma_n * (rng.normal(size=(n_r, T)) + 1j * rng.normal(size=(n_r, T)))


def _trial_inputs(tr, cfg, basis, values, sigma_n, si, trial):
    """Channel, symbols, noise and received block of one trial, drawn in
    run_campaign's order from default_rng([seed, si, trial])."""
    rng = tr.call("numpy.default_rng", np.random.default_rng, [cfg.seed, si, trial])
    H = tr.call("simulate.draw_channel", draw_channel, cfg, rng)
    s = tr.call("numpy.choice", rng.choice, values, size=basis.k)
    X = tr.call("lattice.combination", basis.combination, s)
    noise = tr.call("numpy.noise", _noise, rng, sigma_n, cfg.n_r, basis.T)
    return H, s, noise, H @ X + noise


def _ml_bound_ok(res, alphabet, noise) -> bool:
    """An ML answer is in the alphabet and no worse than the sent symbols,
    whose metric is the noise energy."""
    sent = float(np.sum(np.abs(noise) ** 2))
    return (
        all(c in alphabet.values for c in res.coeffs)
        and math.isfinite(res.metric)
        and res.metric <= sent * (1 + 1e-9) + 1e-12
    )


def replay_campaign(ctx: Context, c: Campaign, seed: int, exact_check: bool) -> str:
    """Run the trials of one campaign the way run_campaign does and return
    its CSV; each trial's time goes to ctx.units[c.code], and what
    retime_campaign needs to repeat it to ctx.trial_log[c.label].  Each
    trial is checked; with exact_check every trial with L^k <= 2^16 is also
    decoded by ml_exhaustive and the answers compared."""
    t_campaign = perf_counter()
    tr, tally = ctx.tracer, ctx.tally
    tr.tag = c.code
    basis = ctx.basis(c.code)
    alphabet = pam(c.pam)
    cfg = default_config(basis, c.snrs, trials=c.trials, seed=seed)
    want_ml = c.decoder in ("ml", "both")
    want_sp = c.decoder in ("sphere", "both")
    check_ml = exact_check and want_sp and c.pam**basis.k <= EXACT_CHECK_LIMIT
    ordering = None
    k_prime = basis.k
    if want_sp:
        prof = tr.call("decodability.classify", classify, basis)
        ordering = [i for g in prof.groups for i in g] + list(prof.conditioned)
        k_prime = prof.k_prime
    values = np.array(sorted(alphabet.values), dtype=int)
    rows = []
    nodes = []  # (si, trial, nodes) of the node counts the CSV reports
    log = {"ordering": ordering, "sigmas": [], "results": {}}
    extra = 0.0  # time in exactness checks and reference loops, not in run_campaign
    for si, snr_db in enumerate(cfg.snr_db_grid):
        ctx.progress.update(snr_index=si, trial=None)
        sigma_n = tr.call(
            "simulate.calibrate_noise", calibrate_noise,
            basis, alphabet, cfg, snr_db, CALIBRATION_SAMPLES,
        )
        log["sigmas"].append(sigma_n)
        err_ml = err_sp = 0
        counts = []
        for trial in range(cfg.trials):
            ctx.progress["trial"] = trial
            if trial % REFERENCE_EVERY == 0:
                extra += reference_loop(ctx)
            t0 = perf_counter()
            H, s, noise, Y = _trial_inputs(tr, cfg, basis, values, sigma_n, si, trial)
            truth = tuple(int(v) for v in s)
            ml = sp = None
            if want_ml:
                t1 = perf_counter()
                ml = tr.call("simulate.ml_exhaustive", ml_exhaustive, Y, H, basis, alphabet)
                ctx.ml.append((ml.nodes_visited, perf_counter() - t1))
                err_ml += ml.coeffs != truth
            if want_sp:
                t1 = perf_counter()
                sp = tr.call(
                    "simulate.sphere_decode", sphere_decode, Y, H, basis, alphabet, ordering
                )
                ctx.sphere.append((sp.nodes_visited, perf_counter() - t1))
                err_sp += sp.coeffs != truth
            index = si * cfg.trials + trial
            ctx.units.setdefault(c.code, {})[index] = perf_counter() - t0
            if want_sp:
                log["results"][index] = (sp.nodes_visited, sp.coeffs)
            counts.append(sp.nodes_visited if want_sp else ml.nodes_visited)
            nodes.append((si, trial, counts[-1]))
            for res, which in ((ml, "ml_exhaustive"), (sp, "sphere_decode")):
                if res is not None:
                    tally.check(
                        _ml_bound_ok(res, alphabet, noise),
                        f"{which} {c.code} seed={seed} si={si} trial={trial}: "
                        "answer outside the alphabet or worse than the sent symbols",
                    )
            if check_ml:
                t1 = perf_counter()
                if ml is None:
                    ml = tr.extra("simulate.ml_exhaustive", ml_exhaustive, Y, H, basis, alphabet)
                    ctx.ml.append((ml.nodes_visited, perf_counter() - t1))
                ctx.exact_compared += 1
                same = ml.coeffs == sp.coeffs
                ctx.exact_mismatches += not same
                tally.check(
                    same,
                    f"sphere_decode != ml_exhaustive on {c.code} seed={seed} "
                    f"si={si} trial={trial}",
                )
                extra += perf_counter() - t1
        rows.append((
            float(snr_db),
            cfg.trials,
            err_ml / cfg.trials if want_ml else None,
            err_sp / cfg.trials if want_sp else None,
            float(np.mean(counts)),
            int(max(counts)),
        ))
    ctx.trial_log.setdefault(c.label, log)
    total = sum(n for _, _, n in nodes)
    si, trial, worst = max(nodes, key=lambda x: x[2])
    ctx.campaigns.append({
        "campaign": c.label, "seed": seed, "k_prime": k_prime, "trials": len(nodes),
        "seconds": perf_counter() - t_campaign - extra,
        "nodes_per_trial_over_Lkprime": total / len(nodes) / c.pam**k_prime,
        "worst_trial": {"snr_index": si, "trial": trial, "nodes": worst,
                        "share": worst / total if total else 0.0,
                        "replay": f"default_rng([{seed}, {si}, {trial}])"},
    })
    return SimCampaign(rows=tuple(rows)).to_csv()


def retime_campaign(ctx: Context, c: Campaign, seed: int):
    """A later round of a sphere-only campaign: the LIGHT_SHARE of round 0's
    trials with the fewest nodes, drawn and decoded again and timed, each
    checked against its round-0 answer and node count."""
    log = ctx.trial_log[c.label]
    basis = ctx.basis(c.code)
    alphabet = pam(c.pam)
    cfg = default_config(basis, c.snrs, trials=c.trials, seed=seed)
    values = np.array(sorted(alphabet.values), dtype=int)
    results = log["results"]
    light = sorted(results, key=lambda i: (results[i][0], i))
    times = ctx.units.setdefault(c.code, {})
    same = True
    for n, index in enumerate(light[:int(LIGHT_SHARE * len(light))]):
        si, trial = divmod(index, cfg.trials)
        ctx.progress.update(snr_index=si, trial=trial)
        if n % REFERENCE_EVERY == 0:
            reference_loop(ctx)
        t0 = perf_counter()
        H, _, _, Y = _trial_inputs(
            ctx.tracer, cfg, basis, values, log["sigmas"][si], si, trial
        )
        sp = sphere_decode(Y, H, basis, alphabet, log["ordering"])
        times[index] = perf_counter() - t0
        same &= (sp.nodes_visited, sp.coeffs) == results[index]
    ctx.tally.check(same, f"a trial of {c.label} seed={seed} decoded otherwise than in round 0")


def _run_campaign(ctx: Context, c: Campaign, seed: int) -> str:
    basis = ctx.basis(c.code)
    cfg = default_config(basis, c.snrs, trials=c.trials, seed=seed)
    reference_loop(ctx)
    t0 = perf_counter()
    csv = run_campaign(basis, pam(c.pam), cfg, decoder=c.decoder).to_csv()
    elapsed = perf_counter() - t0
    ctx.units.setdefault(c.label, []).append(elapsed)
    ctx.rc_seconds += elapsed
    ctx.rc_trials += c.trials * len(c.snrs)
    return csv


def _campaign_sane(c: Campaign, csv: str) -> bool:
    """Rows cover the SNR grid; with both decoders on, the exact sphere
    decoder must make exactly the errors ML makes."""
    lines = csv.strip().split("\n")[1:]
    if len(lines) != len(c.snrs):
        return False
    for line in lines:
        snr, trials, cer_ml, cer_sp = line.split(",")[:4]
        if int(trials) != c.trials:
            return False
        if c.decoder == "both" and cer_ml != cer_sp:
            return False
    return True


def _campaign_op(ctx: Context, c: Campaign, seed: int, fn) -> str | None:
    ctx.progress.update(campaign=c.label, seed=seed)
    try:
        csv = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        ctx.tally.error(f"campaign {c.label} seed={seed}", exc)
        return None
    ctx.tally.check(_campaign_sane(c, csv), f"campaign {c.label} seed={seed}: bad rows")
    return csv


def _campaign_round(ctx: Context, campaigns, seed: int, traced: bool, per_trial: bool) -> dict:
    """One round of campaigns, as {label: CSV}.

    Untraced, a campaign is one run_campaign call, or with per_trial its
    trials replayed and timed one by one.  Traced, run_campaign runs and is
    then replayed with spans and the exactness check, and the two CSVs must
    agree.
    """
    out = {}
    for c in campaigns:
        trace_id = f"{c.code}@{seed}"
        ctx.tracer.begin(trace_id)
        if traced:
            csv = _campaign_op(ctx, c, seed, lambda: _run_campaign(ctx, c, seed))
            ctx.tracer.extra("decodability.hurwitz_radon", hurwitz_radon, ctx.basis(c.code))
            replayed = _campaign_op(
                ctx, c, seed, lambda: replay_campaign(ctx, c, seed, exact_check=True)
            )
            if csv is not None and replayed is not None:
                ctx.untraced_s += ctx.units[c.label][-1]
                ctx.traced_s += ctx.campaigns[-1]["seconds"]
            same = csv is not None and csv == replayed
            ctx.rows_reproduced += same
            ctx.tally.check(same, f"replay of {c.label} seed={seed} differs from run_campaign")
        elif per_trial:
            csv = _campaign_op(
                ctx, c, seed, lambda: replay_campaign(ctx, c, seed, exact_check=False)
            )
        else:
            csv = _campaign_op(ctx, c, seed, lambda: _run_campaign(ctx, c, seed))
        out[c.label] = csv
    return out


# ----------------------------------------------------------------------
# Analyze.


def cli_text(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"stlattice {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _analyze_call(ctx: Context, what: str, fn):
    ctx.progress.update(call=what)
    reference_loop(ctx)
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as exc:
        ctx.tally.error(what, exc)
        return None
    ctx.units.setdefault(what, []).append(perf_counter() - t0)
    return out


def _analyze_round(ctx: Context, seed: int, bound=LATTICE_BOUND, random=MIN_RANK_RANDOM) -> dict:
    """The untraced analyze round; with a tracer each call is a span."""
    tr = ctx.tracer
    out = {}
    out["zoo"] = _analyze_call(
        ctx, "cli zoo",
        lambda: tr.call("cli.zoo", cli_text, ["zoo", "--seed", str(seed)]),
    )
    for name in REGISTRY:
        out[f"analyze.{name}"] = _analyze_call(
            ctx, f"cli analyze {name}",
            lambda: tr.call("cli.analyze", cli_text, ["analyze", name, "--seed", str(seed)]),
        )
    for name in LATTICE_CODES:
        out[f"lattice.{name}"] = _analyze_call(
            ctx, f"cli lattice {name}",
            lambda: tr.call("cli.lattice", cli_text, ["lattice", name, "--bound", str(bound)]),
        )
    out["min_rank_sampled"] = _analyze_call(
        ctx, "min_rank_sampled",
        lambda: tr.call(
            "lattice.min_rank_sampled", min_rank_sampled, ctx.basis(MIN_RANK_CODE),
            1, MIN_RANK_NONZEROS, random, seed,
        ),
    )
    return out


def min_rank_vectors(k: int, random: int) -> int:
    """Vectors min_rank_sampled examines: one of each antipodal pair with at
    most MIN_RANK_NONZEROS entries in {-1, 1}, then the random draws (a
    computed count; the rare all-zero draw is not subtracted)."""
    sparse = sum(math.comb(k, m) * 2 ** (m - 1) for m in range(1, MIN_RANK_NONZEROS + 1))
    return sparse + random


def _lattice_figures(text: str) -> dict:
    data = json.loads(text)
    return {key: data[key] for key in ("volume", "min_det_est", "delta", "eta")}


def _check_analyze(ctx: Context, out: dict, seed: int):
    """Every analyze output is seed-independent, so every round is held to
    the reference outputs."""
    refs = ctx.references["analyze"]
    for key, got in out.items():
        if got is None:
            continue  # already counted as a failure
        if key == "zoo":
            ok = got == refs["zoo"]
        elif key.startswith("analyze."):
            ok = json.loads(got) == refs["classify"][key.split(".", 1)[1]]
        elif key.startswith("lattice."):
            ok = _lattice_figures(got) == refs["lattice"][key.split(".", 1)[1]]
        else:
            ok = got == refs["min_rank_sampled"]
        ctx.tally.check(ok, f"{key} (seed {seed}) differs from the reference output")


def _analyze_replay(
    ctx: Context, out: dict, seed: int, bound=LATTICE_BOUND, random=MIN_RANK_RANDOM
):
    """Traced only: the CLI verbs' library calls, each a span, checked
    against what the CLI printed."""
    tr = ctx.tracer
    for name in REGISTRY:
        basis = ctx.basis(name)
        tr.tag = name
        tr.extra("decodability.hurwitz_radon", hurwitz_radon, basis)
        prof = tr.extra("decodability.classify", classify, basis, trials=ZOO_TRIALS, seed=seed)
        data = prof.to_json_dict()
        full_rate = basis.n_t == basis.T and basis.rank == 2 * basis.n_t * basis.T
        data["bounds_violations"] = bounds_check(prof, basis.n_t, full_rate=full_rate)
        cli_out = out.get(f"analyze.{name}")
        ctx.tally.check(
            cli_out is not None and json.loads(json.dumps(data)) == json.loads(cli_out),
            f"classify({name}) differs from stlattice analyze {name}",
        )
    for name in LATTICE_CODES:
        basis = ctx.basis(name)
        tr.tag = name
        prof = tr.extra("lattice.lattice_profile", lattice_profile, basis, bound)
        ctx.box_vectors += ((2 * bound + 1) ** basis.k - 1) // 2
        figures = {"volume": prof.volume, "min_det_est": prof.min_det_est,
                   "delta": prof.delta, "eta": prof.eta}
        cli_out = out.get(f"lattice.{name}")
        ctx.tally.check(
            cli_out is not None and figures == _lattice_figures(cli_out),
            f"lattice_profile({name}) differs from stlattice lattice {name}",
        )
    if out.get("min_rank_sampled") is not None:
        ctx.min_rank_vectors += min_rank_vectors(ctx.basis(MIN_RANK_CODE).k, random)


# ----------------------------------------------------------------------
# Rounds, as the runner sees them.


def reference_round(workload: str, ctx: Context):
    """Warm-up on REFERENCE_SEED, checked against references.json.  On
    search this checks the replayed trial loop against the CSVs that
    run_campaign gave when the references were recorded.  The analyze
    outputs do not depend on the seed, and every timed round checks them
    against the references."""
    if workload == "search":
        out = _campaign_round(ctx, SEARCH_REFERENCE, REFERENCE_SEED, False, per_trial=True)
    else:
        out = _campaign_round(ctx, PIPELINE_REFERENCE, REFERENCE_SEED, False, per_trial=False)
    for label, csv in out.items():
        ctx.tally.check(
            csv is not None and sha256(csv) == ctx.references[workload][label]["sha256"],
            f"reference CSV of {label} (seed {REFERENCE_SEED}) does not match",
        )


def timed_round(workload: str, ctx: Context, seed: int, traced: bool) -> str | None:
    """One timed round; unit times go to ctx.units.  Returns a digest of
    the round's outputs, or None for a later search round, which checks
    its trials against round 0 itself."""
    if workload == "search":
        if ctx.trial_log and not traced:
            for c in SEARCH:
                ctx.progress.update(campaign=c.label, seed=seed)
                try:
                    retime_campaign(ctx, c, seed)
                except Exception as exc:
                    ctx.tally.error(f"campaign {c.label} seed={seed}", exc)
            return None
        out = _campaign_round(ctx, SEARCH, seed, traced, per_trial=True)
        return sha256(json.dumps(out, sort_keys=True))
    out = _campaign_round(ctx, PIPELINE, seed, traced, per_trial=False)
    ctx.tracer.begin(f"analyze@{seed}")
    if traced:
        # the same calls untraced first, for the tracing overhead
        quiet = Context(ctx.bases, NullTracer(), ctx.tally, ctx.references)
        t0 = perf_counter()
        _check_analyze(ctx, _analyze_round(quiet, seed), seed)
        ctx.untraced_s += perf_counter() - t0
    t0 = perf_counter()
    analyzed = _analyze_round(ctx, seed)
    if traced:
        ctx.traced_s += perf_counter() - t0
        _analyze_replay(ctx, analyzed, seed)
    _check_analyze(ctx, analyzed, seed)
    out.update(analyzed)
    return sha256(json.dumps(out, sort_keys=True))


def probe_round(ctx: Context):
    """Traced runs only: small calls into every layer, a short golden
    campaign with both decoders and the analyze calls at a smaller lattice
    bound and fewer random vectors.  They give the per-layer figures of
    the layers that a workload does not reach."""
    _campaign_round(ctx, PROBE_CAMPAIGNS, REFERENCE_SEED, True, per_trial=False)
    ctx.tracer.begin("probe")
    out = _analyze_round(ctx, REFERENCE_SEED, PROBE_LATTICE_BOUND, PROBE_MIN_RANK_RANDOM)
    _analyze_replay(ctx, out, REFERENCE_SEED, PROBE_LATTICE_BOUND, PROBE_MIN_RANK_RANDOM)


def record_references() -> dict:
    """Reference outputs on REFERENCE_SEED, computed by the library's own
    entry points (run_campaign and the CLI)."""
    bases = {name: build(name) for name in REGISTRY}
    refs = {"seed": REFERENCE_SEED}
    for workload, campaigns in (("search", SEARCH_REFERENCE), ("pipeline", PIPELINE_REFERENCE)):
        block = {}
        for c in campaigns:
            cfg = default_config(bases[c.code], c.snrs, trials=c.trials, seed=REFERENCE_SEED)
            csv = run_campaign(bases[c.code], pam(c.pam), cfg, decoder=c.decoder).to_csv()
            block[c.label] = {"sha256": sha256(csv), "csv": csv}
        refs[workload] = block
    seed = str(REFERENCE_SEED)
    refs["analyze"] = {
        "zoo": cli_text(["zoo", "--seed", seed]),
        "classify": {
            name: json.loads(cli_text(["analyze", name, "--seed", seed])) for name in REGISTRY
        },
        "lattice": {
            name: _lattice_figures(cli_text(["lattice", name, "--bound", str(LATTICE_BOUND)]))
            for name in LATTICE_CODES
        },
        "min_rank_sampled": min_rank_sampled(
            bases[MIN_RANK_CODE], 1, MIN_RANK_NONZEROS, MIN_RANK_RANDOM, REFERENCE_SEED
        ),
    }
    return refs
