"""The wsc benchmark: time to verdict on four seeded workloads.

    python3 bench/run.py --workload chains --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One workload runs in one process and one thread.  Set-up imports `wsc`
from `src/` next to this directory, generates the workload's pool of
instances from the seed, and establishes every expected verdict with
the independent checks in checks.py.  The timed part then solves the
whole pool, round after round in a seeded order, until --seconds have
passed; rounds are never cut short, so every run measures the same mix.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; after the timed rounds, one untimed pass over
the pool's largest instance under tracemalloc gives its heap peak.  With
--trace 1 the rounds alternate between
untraced and traced (tracing.py) and the metrics are per-layer counts and
self times per round.  --workload all runs each workload in a child
process and prints one table.  Every run writes a record with its raw
samples under bench/out/.

Exit codes: 0 every verdict correct, 2 usage or set-up error (no
`src/wsc`, an instance whose verdict cannot be established), 3 a wrong,
failed or late verdict, or a run that reached HARD_STOP_S too short to
report every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import generators
import stats
from calibrate import NOMINAL_S, Calibration
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
MIN_VERDICTS = 100
# A verdict slower than this counts as failed: ten times the slowest
# verdict of any workload (a C(9) solve, under a second).
VERDICT_LIMIT_S = 10.0
# A run keeps going past --seconds until it has MIN_VERDICTS, but not
# past this many seconds; a run stopped short of them fails (exit 3).
HARD_STOP_S = 150.0


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int], list]
    incremental: bool = False
    oracle: bool = False


WORKLOADS = {
    "chains": Workload(generators.chains),
    "chains-incremental": Workload(generators.chains_incremental, incremental=True),
    "unify": Workload(generators.unify),
    "oracle-check": Workload(generators.oracle_check, oracle=True),
}

RULES = ("Clash", "Elim", "Decom", "Propagate1", "Propagate2", "Collapse",
         "Descend1", "Descend2")

END_TO_END = {
    "setup_s": "s",
    "verdict_s_p50": "s",
    "verdict_s_p90": "s",
    "verdicts_per_s": "1/s",
    "growth_exp": "exponent",
    "peak_heap_mib": "MiB",
}


# --- set-up -------------------------------------------------------------------


def import_wsc():
    """A fresh import of the package under src/, so each set-up pays it."""
    if not (SRC / "wsc" / "__init__.py").is_file():
        raise checks.SetupError(f"no wsc package at {SRC.relative_to(ROOT)}/wsc")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "wsc" or m.startswith("wsc.")]:
        del sys.modules[name]
    wsc = importlib.import_module("wsc")
    if Path(wsc.__file__).resolve().parent != SRC / "wsc":
        raise checks.SetupError(f"imported wsc from {wsc.__file__}, not from src/")
    return wsc


def set_up(workload: str, seed: int, cal: Calibration):
    """Import, generate, render and check; returns the calibrated
    seconds it took (see calibrate.py) and the raw ones."""
    cal.measure()
    start = time.perf_counter()
    wsc = import_wsc()
    pool = WORKLOADS[workload].generate(seed)
    expected = [checks.expected_verdicts(wsc, workload, inst) for inst in pool]
    end = time.perf_counter()
    cal.measure()
    raw = end - start
    return raw * cal.factor(start, end), raw, wsc, pool, expected


# --- verdicts -------------------------------------------------------------------


@dataclass
class Sample:
    """One timed verdict: its wall-clock start and seconds, and the
    seconds scaled to the calibration's nominal speed."""

    instance: int
    start: float
    raw: float
    ok: bool
    error: str | None = None
    seconds: float = 0.0


class Runner:
    """Solves instances and times each verdict.  When `tracer` is set,
    each verdict is a root span and the engine's own counts are kept."""

    def __init__(self, wsc, wl: Workload, pool, expected, cal: Calibration):
        self.wsc, self.wl, self.pool, self.expected = wsc, wl, pool, expected
        self.cal = cal
        self.tracer: Tracer | None = None
        self.counts: dict[str, float] = {}

    def _count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _engine_counts(self, steps: int, trace, store, parsed: int) -> None:
        self._count("engine.steps", steps)
        for entry in trace:
            self._count(f"engine.fired.{entry.rule.value}", 1)
        self._count("constraints.store.final_atoms", len(store))
        self._count("frontend.parse.atoms", parsed)

    def _timed(self, fn) -> tuple[float, float, object, str | None]:
        if self.cal is not None:
            self.cal.due()
        tracer = self.tracer
        if tracer is not None:
            tracer.verdict_id += 1
            fn = tracer.span("bench.verdict", fn)
        start = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a verdict that raises is a failed verdict
            out, err = None, f"{type(exc).__name__}: {exc}"
        return start, time.perf_counter() - start, out, err

    def run_instance(self, i: int) -> list[Sample]:
        inst, expected, wl = self.pool[i], self.expected[i], self.wl
        fe, eng = self.wsc.frontend, self.wsc.engine
        if wl.incremental:
            return self._run_incremental(i, inst, expected)

        def verdict():
            problem = fe.parse(inst.text, name=inst.name)
            result = eng.solve(problem.atoms)
            msg = fe.oracle_check(problem.atoms, result.verdict) if wl.oracle else None
            return problem, result, msg

        t0, dt, out, err = self._timed(verdict)
        if out is None:
            return [Sample(i, t0, dt, False, err)]
        problem, result, msg = out
        if wl.oracle:
            ok = msg is None and result.verdict.value in ("sat", "unsat")
            err = msg
        else:
            ok = result.verdict.value == expected[0]
            err = None if ok else f"verdict {result.verdict.value}, expected {expected[0]}"
        if self.tracer is not None:
            self._engine_counts(result.steps, result.trace, result.store, len(problem.atoms))
        return [self._sample(i, t0, dt, ok, err)]

    @staticmethod
    def _sample(i: int, t0: float, dt: float, ok: bool, err: str | None) -> Sample:
        if ok and dt > VERDICT_LIMIT_S:
            ok, err = False, f"took {dt:.1f} s, over the {VERDICT_LIMIT_S:.0f} s limit"
        return Sample(i, t0, dt, ok, err)

    def _run_incremental(self, i: int, inst, expected) -> list[Sample]:
        fe, eng = self.wsc.frontend, self.wsc.engine
        solver = eng.Solver()
        out: list[Sample] = []
        for k, line in enumerate(inst.lines):

            def verdict():
                atom = fe.parse(line, name=inst.name).atoms[0]
                return solver.assert_atom(atom)

            t0, dt, got, err = self._timed(verdict)
            if got is None:
                # A raising assert leaves the solver in an unknown state:
                # the rest of the instance counts as failed.
                out += [Sample(i, t0, dt, False, err)] * (len(inst.lines) - k)
                return out
            ok = got.value == expected[k]
            out.append(self._sample(i, t0, dt, ok, None if ok else
                                    f"verdict {got.value}, expected {expected[k]}"))
        if self.tracer is not None:
            self._engine_counts(solver.step_count, solver.trace, solver.store, len(inst.lines))
        return out


def run_rounds(runner: Runner, tracer: Tracer | None, seed: int, seconds: float):
    """Whole rounds over the pool, in a seeded order, until `seconds`
    have passed and there are MIN_VERDICTS verdicts.  With a tracer,
    rounds alternate untraced / traced, starting untraced and ending
    traced, until `seconds` have passed.  Returns (traced, samples) per
    round, with each sample's seconds scaled by the calibration."""
    rounds: list[tuple[bool, list[Sample]]] = []
    rng = random.Random(f"order-{seed}")
    start = time.perf_counter()

    def more() -> bool:
        if not rounds:
            return True
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            return False
        if tracer is not None:
            return not rounds[-1][0] or elapsed < seconds
        return elapsed < seconds or sum(len(s) for _, s in rounds) < MIN_VERDICTS

    while more():
        traced = tracer is not None and len(rounds) % 2 == 1
        order = rng.sample(range(len(runner.pool)), len(runner.pool))
        runner.tracer = tracer if traced else None
        if traced:
            tracer.install()
        try:
            samples = [s for i in order for s in runner.run_instance(i)]
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, samples))
    runner.tracer = None
    runner.cal.measure()
    for _, samples in rounds:
        for s in samples:
            s.seconds = s.raw * runner.cal.factor(s.start, s.start + s.raw)
    return rounds


# --- metrics -------------------------------------------------------------------


def instance_times(runner: Runner, samples: list[Sample]) -> list[tuple[int, int, float]]:
    """(pool index, atom count, seconds) per solved instance, its time
    being the sum of its verdicts."""
    per: dict[int, float] = {}
    for s in samples:
        per[s.instance] = per.get(s.instance, 0.0) + s.seconds
    return [(i, runner.pool[i].size, t) for i, t in per.items()]


def peak_heap_mib(runner: Runner) -> float:
    """The tracemalloc peak of one untimed pass over the pool's largest
    instance (sat before unsat), which the timed rounds already checked.
    Process RSS cannot show the engine: its heap stays under 1 MiB on
    chains and unify, below what importing wsc leaves behind."""
    pool = runner.pool
    i = max(range(len(pool)), key=lambda i: (pool[i].expect != "unsat", pool[i].size))
    cal, runner.cal = runner.cal, None  # no calibration inside the peak
    gc.collect()  # the same garbage-collector state on every pass
    tracemalloc.start()
    try:
        runner.run_instance(i)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
        runner.cal = cal


def end_to_end(runner: Runner, rounds, setup_times: list[float]) -> dict[str, float]:
    """The end-to-end metrics; a percentile the samples cannot support
    (a run cut by HARD_STOP_S) is left out."""
    plain = [r for traced, r in rounds if not traced]
    times = [s.seconds for r in plain for s in r]
    # Unsat instances stop at their first clash, so their time tells
    # where the clash is, not how cost grows with size: the fit leaves
    # them out.
    points = [(size, t) for r in plain for i, size, t in instance_times(runner, r)
              if runner.pool[i].expect != "unsat"]
    out = {"setup_s": statistics.median(scaled for scaled, _ in setup_times)}
    for name, q in (("verdict_s_p50", 0.5), ("verdict_s_p90", 0.9)):
        try:
            out[name] = stats.percentile(times, q)
        except ValueError:  # too few samples
            pass
    out["verdicts_per_s"] = len(times) / sum(times)
    out["growth_exp"] = stats.growth_exponent(points)
    out["peak_heap_mib"] = peak_heap_mib(runner)
    return out


# Spans reported with their call count and self time.
COUNTED_SPANS = (
    ["constraints.determinations"]
    + [f"constraints.store.{m}" for m in ("add", "rewrite", "remove", "subst_all")]
    + [f"oracles.{m}" for m in ("witness_search", "naive_solve", "rational_unify",
                                "check_witness")]
    + [f"terms.{m}" for m in ("simulation_relation", "bisimulation_relation")]
)
LAYERS = ("frontend", "engine", "constraints", "oracles", "terms", "bench")


def per_layer(runner: Runner, tracer: Tracer, rounds) -> dict[str, tuple[float, str]]:
    """Counts and self times per traced round, plus shares and overhead."""
    n = sum(1 for traced, _ in rounds if traced)
    counts = runner.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    put("frontend.parse.s", tracer.self_s["frontend.parse"] / n, "s")
    put("frontend.parse.atoms", counts.get("frontend.parse.atoms", 0) / n, "count")
    for span in COUNTED_SPANS:
        put(f"{span}.calls", tracer.calls[span] / n, "count")
        put(f"{span}.self_s", tracer.self_s[span] / n, "s")
    put("engine.solver.self_s", tracer.self_s["engine.solver"] / n, "s")
    put("engine.steps", counts.get("engine.steps", 0) / n, "count")
    fired = scans = 0.0
    for r in RULES:
        f = counts.get(f"engine.fired.{r}", 0) / n
        c = tracer.calls[f"engine.rule.{r}"] / n
        put(f"engine.fired.{r}", f, "count")
        put(f"engine.scans.{r}", c, "count")
        put(f"engine.rule.{r}.self_s", tracer.self_s[f"engine.rule.{r}"] / n, "s")
        fired, scans = fired + f, scans + c
    put("engine.scan_hit_ratio", fired / scans if scans else 0.0, "ratio")
    put("constraints.var.created", tracer.counts["constraints.var.created"] / n, "count")
    put("constraints.store.final_atoms",
        counts.get("constraints.store.final_atoms", 0) / n, "count")
    for key in ("oracles.witness_search.checked", "oracles.witness_search.exhausted"):
        put(key, tracer.counts[key] / n, "count")
    total = sum(tracer.self_s.values())
    for layer in LAYERS:
        own = sum(t for name, t in tracer.self_s.items() if name.split(".")[0] == layer)
        put(f"layer.{layer}.self_share", own / total, "ratio")
    put("constraints.determinations.self_share",
        tracer.self_s["constraints.determinations"] / total, "ratio")
    plain = [s.seconds for traced, r in rounds if not traced for s in r]
    traced = [s.seconds for traced, r in rounds if traced for s in r]
    put("trace.overhead_ratio", statistics.median(traced) / statistics.median(plain), "ratio")
    return out


# --- the run record ----------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_record(args, runner: Runner, rounds, setup_times, metrics, tracer) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "os": " ".join(os.uname()),
        "commit": commit(),
        "threads": 1,
        "layer_waits": "none: every layer runs in the one thread",
        "setup_s": [{"seconds": scaled, "raw": raw} for scaled, raw in setup_times],
        "calibration": {"nominal_s": NOMINAL_S, "mids": runner.cal.mids,
                        "seconds": runner.cal.seconds},
        "pool": [{"name": p.name, "atoms": p.size, "expect": p.expect} for p in runner.pool],
        "rounds": [
            {"traced": traced,
             "columns": ["instance", "start", "raw_s", "seconds", "ok"],
             "samples": [[s.instance, s.start, s.raw, s.seconds, s.ok] for s in samples]}
            for traced, samples in rounds
        ],
        "errors": [f"{runner.pool[s.instance].name}: {s.error}"
                   for _, samples in rounds for s in samples if s.error][:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.tsv")
    return path


# --- command line ------------------------------------------------------------------


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    cal = Calibration()
    setup_times: list[tuple[float, float]] = []
    try:
        for _ in range(SETUP_REPEATS):
            scaled, raw, wsc, pool, expected = set_up(args.workload, args.seed, cal)
            setup_times.append((scaled, raw))
    except checks.SetupError as exc:
        print(f"set-up error: {exc}", file=sys.stderr)
        return 2
    runner = Runner(wsc, wl, pool, expected, cal)
    runner.run_instance(min(range(len(pool)), key=lambda i: pool[i].size))  # warm-up
    tracer = Tracer(wsc) if args.trace else None
    rounds = run_rounds(runner, tracer, args.seed, args.seconds)

    plain = sum(len(r) for traced, r in rounds if not traced)
    if tracer is None:
        short = plain < MIN_VERDICTS
        metrics = {k: (v, END_TO_END[k]) for k, v in
                   end_to_end(runner, rounds, setup_times).items()}
    else:
        short = not any(traced for traced, _ in rounds)
        metrics = {} if short else per_layer(runner, tracer, rounds)
    path = write_record(args, runner, rounds, setup_times, metrics, tracer)

    samples = [s for _, r in rounds for s in r]
    failed = sum(1 for s in samples if not s.ok)
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(samples)} verdicts ({plain} untraced), {failed} failed; "
          f"record {os.path.relpath(path, ROOT)}")
    if short:
        msg = (f"stopped at the {HARD_STOP_S:.0f} s hard stop with {plain} untraced "
               f"verdicts in {len(rounds)} rounds: too few for every metric")
        print(f"# {msg}")
        print(msg, file=sys.stderr)
    for s in samples:
        if s.error:
            print(f"# failed: {runner.pool[s.instance].name}: {s.error}")
            break
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 and not short else 3


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    code = 0
    table = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 3) or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        table[name] = json.loads(lines[-1])
        print(f"== {name}: {table[name]['attempted']} verdicts, "
              f"{table[name]['failed']} failed")
        for metric, m in table[name]["metrics"].items():
            print(f"{name:20} {metric:42} {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"all-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(table))
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Time to verdict on the wsc workloads.")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
