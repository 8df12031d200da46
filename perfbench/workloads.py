"""The benchmark's workloads: pinned instances, timed rounds, checks.

Every workload runs the package's offline → online pipeline through its
public entry points: ``solve_robust`` at the domain's start vector (it sets
a relative ε, as ``mprobust run --epsilon-pct`` does), ``run_aq``, a
``serialize`` round trip (as ``mprobust run`` writes a result and
``mprobust verify``/``evaluate`` load it), ``cli.verify_solution_set`` with
the CLI defaults, and a closed loop of ``pick_best`` calls.  One round sets
up, solves the workload's timed instances, round-trips the results and
serves every set; rounds repeat until the run's time is up, so every metric
samples the whole run.  The online workload solves its stored set in set-up.

Every timed sample is scaled to a reference host speed, read from a fixed
loop at its start, at its end and, for long ones, every quarter second in
between (see :mod:`hostspeed`).  Each metric is a median over the run's
scaled samples: per instance and per served set over rounds, per window of
the pick stream, per pick.  The γ-pick p99 is the exception: it is taken
over the run's unscaled pick latencies.

Instances are pinned to seed 0 and do not follow ``--seed``: solve time of
one instance shape spans 0.15-15 s across instance seeds (SP 20, K=4/6), far
more than any bound a run-to-run comparison could use.  ``--seed`` drives
the scenario streams and the interior check points.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import mprobust
from mprobust import (
    Budget, PartitionScheme, SolverConfig, SpParams, apply_partition, build_omega,
    cli, gen_sp,
)
from mprobust.serialize import dumps_canonical, result_from_dict, result_to_dict

import checks
from hostspeed import HostSpeed
from spans import (
    GENERATE, PICK, ROUNDTRIP, RUN_AQ, SOLVE_ROBUST, VERIFY, Tracer, layer_metrics,
    span_cost_s,
)

INSTANCE_SEED = 0
SOLVE_CAP_S = 20.0          # per solve: Budget.time_limit and SolverConfig.time_limit
CHECK_POINTS = 32           # seeded interior points per gap check, beside the vertices
MIN_ROUNDS = 3              # a run's medians need a few samples
SETUP_ROUND_S = 0.5         # a set-up shorter than this repeats within its round
BLOCK = 5                   # scenarios per set per visit: 4 budget vectors, then 1 cost
WINDOW_GAMMA = 1000          # γ picks in one window of the pick stream, at least


@dataclass(frozen=True)
class Spec:
    """One shortest-path instance: size, partition, interval budget domain, ε."""

    nodes: int
    K: int
    partition: str
    delta: float = 0.0
    eps_pct: float = 0.0    # ε as a percent of the robust value at the start vector

    @property
    def label(self) -> str:
        return f"SP{self.nodes}-K{self.K}-{self.partition}-d{self.delta:g}-eps{self.eps_pct:g}%"


@dataclass(frozen=True)
class Workload:
    name: str
    solve: tuple            # specs solved in the timed part of each round
    stored: tuple           # specs solved during each round's set-up; their sets are served
    windows: int            # windows of the pick stream in one round


WORKLOADS = {
    "offline-interval": Workload(
        "offline-interval",
        solve=(Spec(20, 4, "r"), Spec(20, 6, "r"), Spec(20, 4, "d", 0.5, eps_pct=1.0)),
        stored=(), windows=5),
    "online-scenarios": Workload(
        "online-scenarios",
        solve=(), stored=(Spec(20, 6, "r"),), windows=4),
}


class NoSamples(RuntimeError):
    """Every op behind one of the metrics failed, so the run has no figure to report."""


def generate(spec: Spec):
    """(instance, interval domain) for a spec, from the pinned seed."""
    base = gen_sp(SpParams(spec.nodes, seed=INSTANCE_SEED))
    inst = apply_partition(base, PartitionScheme(spec.partition, spec.K), seed=INSTANCE_SEED)
    return inst, build_omega(inst, "interval", delta=spec.delta)


def roundtrip(res):
    """The result as ``mprobust run`` writes it and ``mprobust verify`` loads it."""
    text = dumps_canonical(result_to_dict(res))
    return result_from_dict(json.loads(text), instance=res.instance)


class Calls:
    """The public entry points a workload times; spanned on a traced round."""

    def __init__(self, tracer: Tracer | None = None):
        wrap = tracer.wrap if tracer is not None else (lambda name, fn: fn)
        self.generate = wrap(GENERATE, generate)
        self.solve_robust = wrap(SOLVE_ROBUST, mprobust.solve_robust)
        self.run_aq = wrap(RUN_AQ, mprobust.run_aq)
        self.roundtrip = wrap(ROUNDTRIP, roundtrip)
        self.verify = wrap(VERIFY, cli.verify_solution_set)
        self.pick_best = wrap(PICK, mprobust.pick_best)


class Ops:
    """Attempted and failed operations; one op is a solve, a verify or a pick."""

    def __init__(self):
        self.tracer: Tracer | None = None   # set while a traced round runs
        self.attempted = 0
        self.failed = 0
        self.misses = 0             # failed correctness checks, a subset of failed
        self.notes: list = []

    def begin(self) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted

    def fail(self, what: str, why: str, miss: bool = False) -> None:
        self.failed += 1
        self.misses += miss
        if len(self.notes) < 20:
            self.notes.append(f"{what}: {why}")

    def raised(self, what: str, exc: Exception) -> None:
        """Count an op that raised; call inside its ``except`` block."""
        if len(self.notes) < 20:
            traceback.print_exc(file=sys.stderr)
        self.fail(what, f"{type(exc).__name__}: {exc}")


@dataclass
class Round:
    """What one round timed, and the outputs it produced.

    Timings are scaled to the reference host; ``raw`` keeps the clock's
    readings of set-up, solves and verifies for the detail line.
    """

    setup_s: float = 0.0
    solve_s: dict = field(default_factory=dict)     # label -> seconds, successful solves
    verify_s: dict = field(default_factory=dict)    # label -> seconds
    raw: dict = field(default_factory=lambda: {"setup_s": 0.0, "solve_s": {}, "verify_s": {}})
    results: list = field(default_factory=list)     # every certified result
    reports: list = field(default_factory=list)     # verify reports
    streams: list = field(default_factory=list)     # (entry, is_cost, gammas, costs, outcomes)
    gamma_ns: list = field(default_factory=list)    # scaled pick latencies
    cost_ns: list = field(default_factory=list)
    gamma_raw_ns: list = field(default_factory=list)    # as the clock read them
    windows: list = field(default_factory=list)     # scenarios/s of each window
    wall_s: float = 0.0


class Run:
    """State of one benchmark run: its ops and the outputs awaiting their checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.ops = Ops()
        self.config = SolverConfig(time_limit=SOLVE_CAP_S)
        self.budget = Budget(time_limit=SOLVE_CAP_S)
        self.solved: list = []      # (spec, inst, omega, result) awaiting the gap check
        self.picks: list = []       # streams awaiting the pick check
        self.instances: dict = {}
        self.rounds = 0
        self.speed = HostSpeed()

    def solve(self, calls: Calls, spec: Spec, inst, omega, rnd: Round):
        """One timed solve op; returns the result, or None on failure."""
        self.ops.begin()
        try:
            with self.speed.region() as took:
                seed_sol = calls.solve_robust(inst, omega.start_gamma, config=self.config)
                res = calls.run_aq(inst, omega, spec.eps_pct / 100.0 * seed_sol.value,
                                   config=self.config, budget=self.budget)
        except Exception as exc:  # a failed solve is counted; the run goes on
            self.ops.raised(spec.label, exc)
            return None
        self.instances[spec.label] = {"iterations": res.iterations,
                                      "distinct": res.num_distinct,
                                      "stop": res.stop_reason}
        if res.stop_reason != "epsilon_met":
            self.ops.fail(spec.label, f"stopped {res.stop_reason}")
            return None
        rnd.raw["solve_s"][spec.label], rnd.solve_s[spec.label] = took
        rnd.results.append(res)
        self.solved.append((spec, inst, omega, res))
        return res

    def setup(self, calls: Calls, rnd: Round):
        """Instances for the timed solves, and the solved, round-tripped stored sets."""
        built = [(spec, *calls.generate(spec)) for spec in self.workload.solve]
        served = []
        for spec in self.workload.stored:
            inst, omega = calls.generate(spec)
            res = self.solve(calls, spec, inst, omega, rnd)
            if res is not None:
                served.append((spec, inst, calls.roundtrip(res)))
        return built, served

    def round(self, calls: Calls) -> Round:
        """Set up, solve the timed instances, round-trip their results, serve all sets."""
        rnd = Round()
        # what the run keeps for its checks stays out of the program's collections
        gc.collect()
        gc.freeze()
        t_round = time.perf_counter()
        speed = self.speed
        repeats = []            # a set-up's time leaves out the readings inside it
        with speed.region() as took:
            while not repeats or (not self.workload.stored and sum(repeats) < SETUP_ROUND_S):
                speed.tick()
                spent, t0 = speed.spent_s, time.perf_counter()
                built, served = self.setup(calls, rnd)
                repeats.append(time.perf_counter() - t0 - (speed.spent_s - spent))
        # the median repeat, at the set-up's mean host speed; the fastest repeat
        # depends on whether the round caught the host's fast state
        rnd.raw["setup_s"] = statistics.median(repeats)
        rnd.setup_s = rnd.raw["setup_s"] * took[1] / took[0]
        for spec, inst, omega in built:
            res = self.solve(calls, spec, inst, omega, rnd)
            if res is not None:
                served.append((spec, inst, calls.roundtrip(res)))
        self.serve(calls, served, rnd)
        rnd.wall_s = time.perf_counter() - t_round
        self.rounds += 1
        return rnd

    def serve(self, calls: Calls, served, rnd: Round) -> None:
        """Verify each served set, then run one closed-loop stream of picks.

        The stream visits the sets in turn, ``BLOCK`` scenarios at a time,
        the last of each block a cost vector and the rest budget vectors, so
        the sets and the two kinds share the stream's stretch of time alike.
        A window holds enough visits for ``WINDOW_GAMMA`` γ picks over all
        sets.  Between visits the host's speed is read every ``PERIOD_S``
        (see :mod:`hostspeed`), and each pick is scaled by the readings
        around it.
        """
        speed = self.speed
        for spec, inst, res in served:
            self.ops.begin()
            try:
                with speed.region() as took:
                    report = calls.verify(inst, res.omega, res.solutions(), res.epsilon,
                                          mode=res.mode, config=self.config)
            except Exception as exc:  # counted; the scenario stream still runs
                self.ops.raised(f"verify {spec.label}", exc)
                continue
            rnd.raw["verify_s"][spec.label], rnd.verify_s[spec.label] = took
            rnd.reports.append(report)
            if not report["ok"]:
                self.ops.fail(f"verify {spec.label}", f"max gap {report['max_gap']:.6g}",
                              miss=True)
        if not served:
            return

        window = BLOCK * -(-WINDOW_GAMMA // ((BLOCK - 1) * len(served)))
        n = self.workload.windows * window
        is_cost = np.arange(n) % BLOCK == BLOCK - 1
        for k, entry in enumerate(served):
            _, inst, res = entry
            rng = np.random.default_rng([self.seed, self.rounds, k])
            gammas = checks.interior_points(res.omega, rng, n)
            costs = inst.c_lower + rng.random((n, inst.n)) * inst.deviations
            rnd.streams.append((entry, is_cost, gammas, costs, [None] * n))
        gamma_raw, cost_raw = [], []    # latencies since the last host reading

        def settle(scale):
            if scale is not None:
                rnd.gamma_raw_ns += gamma_raw
                rnd.gamma_ns += [t * scale for t in gamma_raw]
                rnd.cost_ns += [t * scale for t in cost_raw]
                gamma_raw.clear()
                cost_raw.clear()

        for w0 in range(0, n, window):
            with speed.region() as took:
                for b0 in range(w0, w0 + window, BLOCK):
                    settle(speed.tick())
                    for (spec, _, res), _, gammas, costs, outcomes in rnd.streams:
                        for j in range(b0, b0 + BLOCK):
                            self.ops.begin()
                            t = time.perf_counter_ns()
                            try:
                                if is_cost[j]:
                                    outcomes[j] = calls.pick_best(res, cost=costs[j])
                                else:
                                    outcomes[j] = calls.pick_best(res, gamma=gammas[j])
                            except Exception as exc:  # counted; the stream goes on
                                self.ops.raised(f"pick {spec.label}", exc)
                            t = time.perf_counter_ns() - t
                            (cost_raw if is_cost[j] else gamma_raw).append(t)
            settle(speed.last_scale)
            rnd.windows.append(window * len(rnd.streams) / took[1])
        self.picks.extend(rnd.streams)

    # -- correctness, outside the timed region ----------------------------

    def check(self) -> None:
        refs, points = {}, {}
        for spec, inst, omega, res in self.solved:
            if spec.label not in refs:
                refs[spec.label] = checks.reference(inst)
                rng = np.random.default_rng([self.seed, 7919])
                points[spec.label] = np.vstack([checks.omega_vertices(omega),
                                                checks.interior_points(omega, rng, CHECK_POINTS)])
            why = checks.gap_violation(inst, res.distinct_x, res.epsilon,
                                       refs[spec.label], points[spec.label])
            if why is not None:
                self.ops.fail(spec.label, why, miss=True)
        for (spec, inst, res), is_cost, gammas, costs, outcomes in self.picks:
            X = np.asarray(res.distinct_x, dtype=float)
            distinct = set(res.distinct_x)
            for j, out in enumerate(outcomes):
                if out is None:
                    continue
                scenario = costs[j] if is_cost[j] else gammas[j]
                if not checks.pick_ok(inst, X, distinct, res, scenario, bool(is_cost[j]), *out):
                    self.ops.fail(f"pick {spec.label}", f"scenario {j} value {out[1]!r}",
                                  miss=True)


def _median_sum(rounds, key: str, labels, raw: bool = False) -> float:
    """Sum over ``labels`` of each one's median time over the run's rounds."""
    total = 0.0
    for label in labels:
        times = [(r.raw[key] if raw else getattr(r, key))[label]
                 for r in rounds if label in getattr(r, key)]
        if not times:
            raise NoSamples(f"no successful {key.split('_')[0]} of {label}")
        total += statistics.median(times)
    return total


def measure(run: Run, seconds: float):
    """Untraced run: rounds for about ``seconds``, at least ``MIN_ROUNDS``.

    Each round sets up, solves the timed instances, serves every set and
    streams its scenarios, so that every metric samples the whole run rather
    than one stretch of it.  Returns (end-to-end metrics, sample counts);
    raises :class:`NoSamples` when every op behind a metric failed.
    """
    calls = Calls()
    rounds: list = []
    start = time.perf_counter()
    with run.speed.hooked():
        # stop when another round is expected to end past ``seconds``
        while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start
                                           + statistics.median(r.wall_s for r in rounds)
                                           <= seconds):
            rounds.append(run.round(calls))
    run.check()

    labels = [spec.label for spec in run.workload.stored + run.workload.solve]
    windows = [w for r in rounds for w in r.windows]
    gamma_ns = [t for r in rounds for t in r.gamma_ns]
    cost_ns = [t for r in rounds for t in r.cost_ns]
    gamma_raw_ns = [t for r in rounds for t in r.gamma_raw_ns]
    if not gamma_ns or not cost_ns:
        raise NoSamples("no set was served, so no scenario was picked")
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "solve_s": _median_sum(rounds, "solve_s", labels),
        # identical in every round whose solves all succeeded
        "distinct": max(sum(res.num_distinct for res in r.results) for r in rounds),
        "verify_s": _median_sum(rounds, "verify_s", labels),
        "scenarios_per_s": statistics.median(windows),
        "pick_gamma_p50_us": statistics.median(gamma_ns) / 1e3,
        # unscaled: the slowest picks fall where the host stalls, which the
        # loop's readings do not follow; the clock's p99 repeats better
        "pick_gamma_p99_us": float(np.quantile(gamma_raw_ns, 0.99)) / 1e3,
        "pick_cost_p50_us": statistics.median(cost_ns) / 1e3,
    }
    loop_ms = [1e3 * x for x in run.speed.readings]
    samples = {"rounds": len(rounds), "windows": len(windows),
               "gamma_picks": len(gamma_ns), "cost_picks": len(cost_ns),
               "round_s": [round(r.wall_s, 3) for r in rounds],
               "unscaled": {"setup_s": statistics.median(r.raw["setup_s"] for r in rounds),
                            "solve_s": _median_sum(rounds, "solve_s", labels, raw=True),
                            "verify_s": _median_sum(rounds, "verify_s", labels, raw=True)},
               "host_loop_ms": {"readings": len(loop_ms), "min": min(loop_ms),
                                "median": statistics.median(loop_ms), "max": max(loop_ms)}}
    return metrics, samples


def _facts(rnd: Round) -> dict:
    """Counts for the per-layer figures that the spans cannot see."""
    gamma_picks = distinct_scanned = 0
    for (_, _, res), is_cost, *_ in rnd.streams:
        n = int((~is_cost).sum())
        gamma_picks += n
        distinct_scanned += n * res.num_distinct
    return {
        "iterations": sum(len(r.q_values) for r in rnd.results),
        "history_len": sum(len(r.history) for r in rnd.results),
        "gamma_picks": gamma_picks,
        "distinct_scanned": distinct_scanned,
        "verify_points": sum(r["checked"] for r in rnd.reports),
        "verify_calls": len(rnd.reports),
        "verify_pattern_routes": sum(r["reference"] == "pattern-oracle" for r in rnd.reports),
    }


def traced(run: Run, seconds: float):
    """Traced run: a warm-up round, then untraced and traced rounds in turn.

    The per-layer figures come from the spans of the first traced round.
    Pairs of rounds alternate their order (traced first, then untraced
    first) while another pair fits in ``seconds``, counted from the warm-up.
    The tracing overhead is the first traced round's span count times the
    calibrated cost of one span, over the fastest untraced round: the host's
    speed moves a round's time by far more than tracing does, so the
    difference between the fastest rounds of each kind goes to the sample
    counts only.  Returns (per-layer metrics, the first round's tracer,
    sample counts).
    """
    start = time.perf_counter()
    warm_up = run.round(Calls())
    tracers, traced_rounds, plain_rounds = [], [], []

    def one(trace: bool) -> None:
        if not trace:
            plain_rounds.append(run.round(Calls()))
            return
        tracer = Tracer()
        with tracer.installed():
            run.ops.tracer = tracer
            traced_rounds.append(run.round(Calls(tracer)))
            run.ops.tracer = None
        if not tracers:             # later traced rounds only time the overhead
            tracers.append(tracer)

    while not plain_rounds or (time.perf_counter() - start
                               + 2 * min(r.wall_s for r in plain_rounds) <= seconds):
        traced_first = len(plain_rounds) % 2 == 0
        one(traced_first)
        one(not traced_first)
    run.check()

    metrics = layer_metrics(tracers[0].spans, _facts(traced_rounds[0]))
    plain_s = [r.wall_s for r in plain_rounds]
    traced_s = [r.wall_s for r in traced_rounds]
    span_s = span_cost_s()
    metrics["trace.overhead_pct"] = 100.0 * len(tracers[0].spans) * span_s / min(plain_s)
    samples = {"spans": len(tracers[0].spans), "span_cost_us": span_s * 1e6,
               "pairs": len(plain_s), "warm_up_round_s": warm_up.wall_s,
               "untraced_round_s": plain_s, "traced_round_s": traced_s,
               "round_diff_pct": 100.0 * (min(traced_s) - min(plain_s)) / min(plain_s)}
    return metrics, tracers[0], samples
