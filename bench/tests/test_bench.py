"""Tests for the benchmark's own code: generators, checks, statistics
and the tracer.  Run with `python3 -m pytest bench/tests -q`."""

import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import generators  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import wsc  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = sorted(generators.GENERATORS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    gen = generators.GENERATORS[workload]
    first = "".join(inst.text for inst in gen(7)).encode()
    again = "".join(inst.text for inst in gen(7)).encode()
    other = "".join(inst.text for inst in gen(8)).encode()
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_instance_passes_its_independent_check(workload, seed):
    for inst in generators.GENERATORS[workload](seed):
        verdicts = checks.expected_verdicts(wsc, workload, inst)
        if workload == "oracle-check":
            assert verdicts == ["oracle"]
        elif workload == "chains-incremental":
            assert len(verdicts) == inst.size
            assert verdicts[-1] == inst.expect
            assert all(v == "sat" for v in verdicts[:-1])
        else:
            assert verdicts == [inst.expect]


def test_a_wrong_witness_is_a_setup_error():
    inst = generators.chains(1)[0]
    bad = generators.Instance(inst.name, inst.lines, "sat",
                              {v: "a()" for v in inst.witness})
    with pytest.raises(checks.SetupError):
        checks.expected_verdicts(wsc, "chains", bad)


def test_an_unrefuted_unsat_claim_is_a_setup_error(monkeypatch):
    monkeypatch.setattr(checks, "NAIVE_BUDGET", 50)
    sat = generators.chains(1)[0]
    with pytest.raises(checks.SetupError):
        checks.expected_verdicts(
            wsc, "chains", generators.Instance(sat.name, sat.lines, "unsat"))


def test_p90_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        stats.percentile([float(i) for i in range(99)], 0.9)
    assert stats.percentile([float(i) for i in range(100)], 0.9) == pytest.approx(89.1)
    assert stats.percentile([1.0] * 20, 0.5) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 19, 0.5)


def test_growth_fit_recovers_a_known_slope():
    rng = random.Random(0)
    points = [(n, 3e-4 * n ** 2.5) for n in (3, 5, 8, 13, 21)]
    assert stats.growth_exponent(points) == pytest.approx(2.5)
    noisy = [(n, t * math.exp(rng.gauss(0, 0.02))) for n, t in points for _ in range(20)]
    assert stats.growth_exponent(noisy) == pytest.approx(2.5, abs=0.05)
    with pytest.raises(ValueError):
        stats.growth_exponent([(4, 1.0), (4, 2.0)])


def test_tracer_counts_and_restores_the_originals():
    originals = (wsc.engine.determinations, wsc.constraints.Store.add,
                 dict(wsc.engine._RULES))
    tracer = Tracer(wsc)
    tracer.install()
    try:
        text = "\n".join(generators.chain_atoms(4, ["a", "b", "c", "d"]))
        problem = wsc.frontend.parse(text)
        result = wsc.engine.solve(problem.atoms)
    finally:
        tracer.uninstall()
    assert (wsc.engine.determinations, wsc.constraints.Store.add,
            dict(wsc.engine._RULES)) == originals
    assert result.verdict.value == "sat"
    assert tracer.calls["frontend.parse"] == 1
    assert tracer.calls["constraints.store.add"] >= len(problem.atoms)
    assert tracer.calls["engine.rule.Clash"] == result.steps + 1
    assert tracer.counts["constraints.var.created"] > 0
    assert all(t >= 0 for t in tracer.self_s.values())


def test_a_run_cut_by_the_hard_stop_fails_but_reports(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "HARD_STOP_S", 0.0)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "oracle-check", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 3
    assert result["attempted"] < run.MIN_VERDICTS and result["failed"] == 0
    assert "verdict_s_p90" not in result["metrics"]
    assert result["metrics"]["verdict_s_p50"]["value"] > 0
    assert result["metrics"]["peak_heap_mib"]["value"] > 0
    assert len(list(tmp_path.glob("*.json"))) == 1
