"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with -s to see them) and asserts
its stated wall-clock budget. Everything is exact arithmetic, so all
comparisons are equalities; there are no tolerances to tune.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

from clusterlab.cli import main
from clusterlab.colimits import (
    FiniteSeedOracle,
    PathQuiverOracle,
    _mutate_tracking,
    build_filtration,
    fan_oracle,
    check_only_coefficients,
    oracle_tower,
    split_fountain_oracle,
    stable_mutation,
)
from clusterlab.disc import (
    exchangeable_arcs,
    fan_triangulation,
    flip_arc,
    seed_from_triangulation,
)
from clusterlab.laurent import LaurentPoly, format_poly, parse_poly
from clusterlab.morphisms import (
    ClusterMap,
    check_cm3,
    check_ideal_witness,
    check_no_specialization_conditions,
    compose,
    enumerate_biadmissible,
    image_seed,
    morphism_from_similarity,
)
from clusterlab.seeds import (
    Seed,
    check_similar,
    check_skew_symmetrizable,
    connected_components,
    coproduct,
    enumerate_cluster_variables,
    mutate_seed,
    opposite_seed,
)


def report(n: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail} ({elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.2f}s)"


def a2_seed():
    return Seed.initial(["y1", "y2"], ["y1", "y2"], [("y1", "y2", 1), ("y2", "y1", -1)])


def example_seed():
    return Seed.initial(
        ["x1", "x2", "x3"],
        ["x2", "x3"],
        [("x1", "x2", 1), ("x2", "x1", -1), ("x3", "x2", 1), ("x2", "x3", -1)],
    )


def random_skew_seed(rng, max_rank=4):
    rank = rng.randint(2, max_rank)
    labels = [f"v{i}" for i in range(rank)]
    entries = []
    for i in range(rank):
        for j in range(i + 1, rank):
            b = rng.choice([-1, 0, 1])
            if b:
                entries += [(labels[i], labels[j], b), (labels[j], labels[i], -b)]
    return Seed.initial(labels, labels, entries)


@pytest.fixture(scope="module")
def flip_sweep():
    """Exhaustive flip/mutation comparison over all triangulations of
    convex n-gons, 4 <= n <= 9, generated by flip-closure from a fan.
    Returns (total, mismatches, produced cluster-variable values, elapsed)."""
    t0 = time.monotonic()
    total = mismatches = 0
    produced = []
    for n in range(4, 10):
        start = fan_triangulation(n)
        seen = {start.arcs}
        frontier = [start]
        edges = []
        while frontier:
            nxt = []
            for t in frontier:
                for a in sorted(exchangeable_arcs(t)):
                    u = flip_arc(t, a)
                    edges.append((t, a, u))
                    if u.arcs not in seen:
                        seen.add(u.arcs)
                        nxt.append(u)
            frontier = nxt
        seeds = {}
        for t, a, u in edges:
            if t.arcs not in seeds:
                seeds[t.arcs] = seed_from_triangulation(t)
            if u.arcs not in seeds:
                seeds[u.arcs] = seed_from_triangulation(u)
            s, su = seeds[t.arcs], seeds[u.arcs]
            sm = mutate_seed(s, a.label)
            new = next(l for l in sm.labels if l not in s.labels)
            produced.append(sm.values[new])
            fl = next(iter(u.arcs - t.arcs)).label
            relabeled = {
                (fl if v == new else v): {
                    (fl if w == new else w): b for w, b in row.items()
                }
                for v, row in sm.matrix.items()
            }
            ok = relabeled == su.matrix and {
                fl if v == new else v for v in sm.exchangeable
            } == set(su.exchangeable)
            mismatches += 0 if ok else 1
            total += 1
    return total, mismatches, produced, time.monotonic() - t0


def test_criterion_1_a2_census():
    t0 = time.monotonic()
    values = enumerate_cluster_variables(a2_seed(), 5)
    expected = {
        "y1",
        "y2",
        "y1^-1*y2 + y1^-1",
        "y1*y2^-1 + y2^-1",
        "y2^-1 + y1^-1 + y1^-1*y2^-1",
    }
    got = {format_poly(v) for v in values}
    elapsed = time.monotonic() - t0
    report(1, got == expected and len(values) == 5, "A2 cluster-variable census", elapsed, 1.0)


def test_criterion_2_example_census_and_morphism():
    t0 = time.monotonic()
    values = enumerate_cluster_variables(example_seed(), 6)
    expected = {
        "x1",
        "x2",
        "x3",
        "x1*x2^-1*x3 + x2^-1",
        "x2*x3^-1 + x3^-1",
        "x1*x2^-1 + x3^-1 + x2^-1*x3^-1",
    }
    census_ok = {format_poly(v) for v in values} == expected and len(values) == 6
    m = ClusterMap(example_seed(), a2_seed(), {"x1": "y1", "x2": "y2", "x3": 1})
    verification = check_cm3(m, 4)
    elapsed = time.monotonic() - t0
    report(
        2,
        census_ok and verification.passed,
        "worked morphism example: census and CM1-CM3 at depth 4",
        elapsed,
        5.0,
    )


def test_criterion_3_ideal_counterexample(tmp_path):
    t0 = time.monotonic()
    src = Seed.initial(
        ["a1", "x", "a2"],
        ["x"],
        [("a1", "x", 1), ("x", "a1", -1), ("x", "a2", 1), ("a2", "x", -1)],
    )
    m = ClusterMap(
        src,
        a2_seed(),
        {"a1": 1, "a2": -1, "x": 0},
        extra={parse_poly("a1*x^-1 + a2*x^-1"): "y1"},
    )
    no_sequences = enumerate_biadmissible(m, 4) == [()]
    verified = check_cm3(m, 4).passed
    empty_image = image_seed(m).labels == ()
    witness = check_ideal_witness(m, 4)
    witness_ok = witness.is_witness and witness.witness == LaurentPoly.var("y1")

    files = {}
    for name, data in {
        "src.seed": {
            "variables": [
                {"id": "a1", "exchangeable": False},
                {"id": "x", "exchangeable": True},
                {"id": "a2", "exchangeable": False},
            ],
            "matrix": [
                ["a1", "x", 1],
                ["x", "a1", -1],
                ["x", "a2", 1],
                ["a2", "x", -1],
            ],
        },
        "dst.seed": {
            "variables": [
                {"id": "y1", "exchangeable": True},
                {"id": "y2", "exchangeable": True},
            ],
            "matrix": [["y1", "y2", 1], ["y2", "y1", -1]],
        },
        "f.map": {
            "assignment": [["a1", 1], ["a2", -1], ["x", 0]],
            "extra": [["a1*x^-1 + a2*x^-1", "y1"]],
        },
    }.items():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        files[name] = str(path)
    exit_code = main(
        [
            "check-ideal",
            "--src", files["src.seed"],
            "--dst", files["dst.seed"],
            "--map", files["f.map"],
        ]
    )
    elapsed = time.monotonic() - t0
    report(
        3,
        no_sequences and verified and empty_image and witness_ok and exit_code == 1,
        "non-ideal morphism witness y1, CLI exit 1",
        elapsed,
        1.0,
    )


def test_criterion_4_composition_cm3_failure():
    t0 = time.monotonic()
    s1 = Seed.initial(
        ["x1", "x2", "x3"],
        ["x2"],
        [("x1", "x2", 1), ("x2", "x1", -1), ("x2", "x3", 1), ("x3", "x2", -1)],
    )
    s2 = Seed.initial(["z"], [], [])
    f = ClusterMap(s1, s2, {"x1": "z", "x2": "z", "x3": "z"})
    g = ClusterMap(s2, a2_seed(), {"z": "y1"})
    rep = check_cm3(compose(g, f), 1)
    ce = rep.counterexample
    ok = (
        ce is not None
        and ce.sequence == ("x2",)
        and ce.lhs == LaurentPoly.const(2)
        and ce.rhs == parse_poly("y1^-1*y2 + y1^-1")
    )
    elapsed = time.monotonic() - t0
    report(4, ok, "composite fails CM3 with 2 vs (1+y2)/y1", elapsed, 1.0)


def test_criterion_5_flip_mutation_sweep(flip_sweep):
    total, mismatches, _, elapsed = flip_sweep
    report(
        5,
        mismatches == 0 and total == 3456,
        f"flip/mutation compatibility on {total} flips over n=4..9",
        elapsed,
        60.0,
    )


def test_criterion_6_positivity_sweep(flip_sweep):
    t0 = time.monotonic()
    values = list(enumerate_cluster_variables(a2_seed(), 5))
    values += enumerate_cluster_variables(example_seed(), 6)
    values += flip_sweep[2]
    rng = random.Random(20240809)
    for _ in range(500):
        s = random_skew_seed(rng)
        for _ in range(rng.randint(1, 8)):
            x = rng.choice(sorted(s.exchangeable))
            s = mutate_seed(s, x)  # exact division failures would raise
        values.extend(s.values.values())
    ok = all(v.has_nonnegative_coefficients() for v in values)
    elapsed = time.monotonic() - t0
    report(
        6,
        ok,
        f"positivity of {len(values)} cluster variables, divisions all exact",
        elapsed,
        120.0,
    )


def test_criterion_7_filtration_laws():
    t0 = time.monotonic()
    oracles = {
        "path-quiver": PathQuiverOracle(),
        "fan": fan_oracle(),
        "split-fountain": split_fountain_oracle(),
    }
    ok = True
    for name, oracle in oracles.items():
        fil = build_filtration(oracle, 8)
        for inner, outer in zip(fil.stages, fil.stages[1:]):
            passed, _ = check_only_coefficients(inner, outer)
            ok = ok and passed
        for inc in fil.inclusions:
            ok = ok and check_no_specialization_conditions(inc).passed
        # composites of consecutive inclusions equal the direct inclusions
        for i in range(len(fil.stages) - 2):
            direct = ClusterMap(
                fil.stages[i],
                fil.stages[i + 2],
                {l: l for l in fil.stages[i].labels},
            )
            composite = compose(fil.inclusions[i + 1], fil.inclusions[i])
            ok = ok and composite.assignment == direct.assignment
    # stability probes: random short admissible sequences over oracle labels
    rng = random.Random(4242)
    probes = 0
    towers = {name: (oracle_tower(o), []) for name, o in oracles.items()}

    def tower_stage(name, i):
        tower, built = towers[name]
        built.extend(itertools.islice(tower, max(0, i + 1 - len(built))))
        return built[i]

    while probes < 100:
        name = ("path-quiver", "fan", "split-fountain")[probes % 3]
        oracle = oracles[name]
        stage = tower_stage(name, 5)
        seq = []
        current = stage
        for _ in range(rng.randint(0, 4)):
            options = [
                l for l in sorted(current.exchangeable) if l in stage.labels
            ]
            if not options:
                break
            step = rng.choice(options)
            seq.append(step)
            current = mutate_seed(current, step)
        target = rng.choice(sorted(stage.labels))
        value, idx = stable_mutation(oracle, seq, target)
        check_stage = tower_stage(name, idx + 1)
        value2, ok2, _ = _mutate_tracking(check_stage, seq, target)
        ok = ok and ok2 and value2 == value
        # the fixture oracles are skew-symmetric: positivity at infinite rank
        ok = ok and value.has_nonnegative_coefficients()
        probes += 1
    elapsed = time.monotonic() - t0
    report(
        7,
        ok,
        "filtration laws and 100 stable-mutation probes on 3 oracles, 8 stages",
        elapsed,
        120.0,
    )


def test_criterion_8_similarity_roundtrip():
    t0 = time.monotonic()
    rng = random.Random(777)
    ok = True
    for trial in range(50):
        rank = rng.randint(2, 6)
        labels = [f"v{i}" for i in range(rank)]
        entries = []
        for i in range(rank):
            for j in range(i + 1, rank):
                b = rng.choice([-1, 0, 0, 1])
                if b:
                    entries += [
                        (labels[i], labels[j], b),
                        (labels[j], labels[i], -b),
                    ]
        ex = [l for l in labels if rng.random() < 0.7]
        s = Seed.initial(labels, ex, entries)
        t = opposite_seed(s)
        bij = check_similar(s, t)
        if bij is None:
            ok = False
            break
        fwd, inv = morphism_from_similarity(bij, s, t)
        for p in enumerate_cluster_variables(s, 3, max_nodes=5000):
            if inv.apply(fwd.apply(p)) != p:
                ok = False
    elapsed = time.monotonic() - t0
    report(8, ok, "similarity round-trips on 50 random seeds of rank <= 6", elapsed, 60.0)


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    rng = random.Random(999)
    failures = 0

    def random_seed(max_rank=5):
        rank = rng.randint(1, max_rank)
        labels = [f"v{i}" for i in range(rank)]
        entries = []
        for i in range(rank):
            for j in range(i + 1, rank):
                b = rng.randint(-2, 2)
                if b:
                    entries += [
                        (labels[i], labels[j], b),
                        (labels[j], labels[i], -b),
                    ]
        ex = [l for l in labels if rng.random() < 0.7]
        return Seed.initial(labels, ex, entries)

    # involution
    done = 0
    while done < 200:
        s = random_seed()
        if not s.exchangeable:
            continue
        x = rng.choice(sorted(s.exchangeable))
        t = mutate_seed(s, x)
        back = next(l for l in t.labels if l not in s.labels)
        failures += 0 if mutate_seed(t, back).same_seed(s) else 1
        done += 1

    # symmetrizer stability
    done = 0
    while done < 200:
        s = random_seed()
        if not s.exchangeable:
            continue
        d = check_skew_symmetrizable(s)
        x = rng.choice(sorted(s.exchangeable))
        t = mutate_seed(s, x)
        new = next(l for l in t.labels if l not in s.labels)
        d2 = dict(d)
        d2[new] = d2.pop(x)
        good = all(
            d2[v] * t.b(v, w) == -d2[w] * t.b(w, v)
            for v in t.labels
            for w in t.labels
        )
        failures += 0 if good else 1
        done += 1

    # component preservation
    done = 0
    while done < 200:
        s = random_seed()
        if not s.exchangeable:
            continue
        x = rng.choice(sorted(s.exchangeable))
        t = mutate_seed(s, x)
        new = next(l for l in t.labels if l not in s.labels)
        before = {frozenset(p.labels) for p in connected_components(s)}
        after = {
            frozenset(x if l == new else l for l in p.labels)
            for p in connected_components(t)
        }
        failures += 0 if before == after else 1
        done += 1

    # coproduct locality
    done = 0
    while done < 200:
        s1 = random_seed(max_rank=3)
        if not s1.exchangeable:
            continue
        s2 = random_seed(max_rank=3)
        s2 = Seed.initial(
            [f"w{l}" for l in s2.labels],
            [f"w{l}" for l in s2.exchangeable],
            [
                (f"w{v}", f"w{w}", b)
                for v, row in s2.matrix.items()
                for w, b in row.items()
            ],
        )
        both = coproduct([s1, s2])
        x = rng.choice(sorted(s1.exchangeable))
        t = mutate_seed(both, x)
        good = all(t.values[v] == both.values[v] for v in s2.labels) and all(
            t.b(v, w) == both.b(v, w)
            for v in s2.labels
            for w in s2.labels
        )
        failures += 0 if good else 1
        done += 1

    # almost-injectivity on verified morphisms
    done = 0
    while done < 200:
        s = random_seed()
        t = opposite_seed(s) if rng.random() < 0.5 else s
        m = ClusterMap(s, t, {l: l for l in s.labels})
        if not check_cm3(m, 2).passed:
            failures += 1  # identity/opposite maps must verify
            done += 1
            continue
        for x in m.source.exchangeable:
            img = m.assignment[x]
            if any(
                m.assignment[y] == img for y in m.source.labels if y != x
            ):
                failures += 1
        done += 1

    elapsed = time.monotonic() - t0
    report(
        9,
        failures == 0,
        "5 invariant suites x 200 randomized instances",
        elapsed,
        120.0,
    )
