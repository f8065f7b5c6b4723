"""The benchmark's own checks: every reference catches a wrong answer.

Run from the root of a checkout: python3 -m pytest -q bench/test_bench.py
"""

import random

import pytest

import run

run.load_program()

import clusterlab  # noqa: E402
import clusterlab.cli  # noqa: E402
import clusterlab.colimits  # noqa: E402
import clusterlab.laurent  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    out = {}
    for name, setup in WORKLOADS.items():
        workdir = tmp_path_factory.mktemp(name)
        out[name] = setup(random.Random(7), str(workdir))
    return out


def pick(jobs, prefix, count=1):
    chosen = [job for job in jobs if job.key.startswith(prefix)][:count]
    assert chosen, prefix
    return chosen


def fail_ratio(selected):
    runner = run.Runner()
    for job in selected:
        runner.run(job)
    return len(runner.failures) / runner.attempted


def sample(jobs):
    return {
        "mutation-walks": pick(jobs["mutation-walks"], "walk", 40),
        "polygon-flips": pick(jobs["polygon-flips"], "flip", 10),
        "mutation-class": pick(jobs["mutation-class"], "enumerate-A", 2)
        + pick(jobs["mutation-class"], "seeds-A", 1)
        + pick(jobs["mutation-class"], "composite", 1)
        + pick(jobs["mutation-class"], "check-ideal", 1),
        "infinite-rank": pick(jobs["infinite-rank"], "stable-mutate", 3)
        + pick(jobs["infinite-rank"], "single-step", 1)
        + pick(jobs["infinite-rank"], "filtration-path", 1),
    }


def test_correct_program_passes(jobs):
    for name, selected in sample(jobs).items():
        assert fail_ratio(selected) == 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_perturbed_polynomial_fails(jobs, workload, monkeypatch):
    exact_div = clusterlab.laurent.lp_exact_div
    one = clusterlab.LaurentPoly.one()
    monkeypatch.setattr(clusterlab.laurent, "lp_exact_div", lambda a, b: exact_div(a, b) + one)
    selected = sample(jobs)[workload]
    if workload == "infinite-rank":
        selected = [j for j in selected if not j.key.startswith("filtration")]
    assert fail_ratio(selected) > 0


def test_wrong_count_fails(jobs, monkeypatch):
    enumerate_values = clusterlab.cli.enumerate_cluster_variables
    monkeypatch.setattr(
        clusterlab.cli, "enumerate_cluster_variables", lambda *a: enumerate_values(*a)[:-1]
    )
    assert fail_ratio(pick(jobs["mutation-class"], "enumerate")) == 1
    enumerate_seeds = clusterlab.enumerate_seeds
    monkeypatch.setattr(clusterlab, "enumerate_seeds", lambda *a: enumerate_seeds(*a)[:-1])
    assert fail_ratio(pick(jobs["mutation-class"], "seeds")) == 1


def test_wrong_exit_code_fails(jobs, monkeypatch):
    main = clusterlab.cli.main
    monkeypatch.setattr(clusterlab.cli, "main", lambda argv: main(argv) and 0)
    assert fail_ratio(pick(jobs["mutation-class"], "composite")) == 1
    assert fail_ratio(pick(jobs["mutation-class"], "check-ideal")) == 1
    monkeypatch.setattr(clusterlab.cli, "main", lambda argv: main(argv) or 2)
    assert fail_ratio(pick(jobs["infinite-rank"], "filtration")) == 1


def test_changed_verdict_on_a_later_pass_fails(jobs):
    job = pick(jobs["polygon-flips"], "flip")[0]
    runner = run.Runner()
    runner.run(job)
    real = job.verdict
    try:
        job.verdict = lambda result: real(result).replace("true", "false", 1)
        runner.run(job)
    finally:
        job.verdict = real
    assert len(runner.failures) == 1


def test_tracer_counts_and_restores_bindings(jobs):
    originals = (clusterlab.mutate_seed, clusterlab.cli.main, clusterlab.LaurentPoly.__mul__)
    tracer = Tracer()
    runner = run.Runner(tracer)
    tracer.install()
    try:
        runner.run(pick(jobs["mutation-class"], "identity-A3")[0])
    finally:
        tracer.uninstall()
    assert not runner.failures
    metrics = tracer.metrics()
    assert metrics["morphisms.cm3.nodes"] == 121  # 1 + 3 + 9 + 27 + 81
    assert 0 < metrics["morphisms.cm3.state_ratio"] < 1
    assert metrics["seeds.mutate.calls"] == 2 * 120  # source and target per step
    assert metrics["cli.load.self_s"] > 0 and metrics["cli.report_bytes"] > 0
    assert metrics["disc.flip.calls"] == 0
    assert (clusterlab.mutate_seed, clusterlab.cli.main, clusterlab.LaurentPoly.__mul__) == originals


def test_wrong_triangulation_quiver_fails(jobs, monkeypatch):
    row = clusterlab.colimits.TriangulationOracle.neighbor_row
    monkeypatch.setattr(
        clusterlab.colimits.TriangulationOracle,
        "neighbor_row",
        lambda self, v: {w: 2 * b for w, b in row(self, v).items()},
    )
    for oracle in ("fan", "split-fountain", "nest"):
        assert fail_ratio(pick(jobs["infinite-rank"], f"stable-mutate-{oracle}", 6)) > 0, oracle
