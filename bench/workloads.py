"""The benchmark's four workloads, each a fixed list of jobs made from a seed.

A job is one unit that ends in a verdict: one mutation walk, one flip with
its seed comparison, or one in-process ``clusterlab.cli.main`` call. The
program is driven only through names exported by ``clusterlab`` and through
``cli.main``. Every verdict is checked against an independent reference in
``reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import clusterlab as cl
import clusterlab.cli

from reference import (
    catalan,
    evaluate,
    expect,
    has_negative_coefficient,
    mutate,
    path_quiver_matrix,
    seed_count,
    sequence_count,
    triangulation_matrix,
    variable_count,
    walk_values,
)


@dataclass
class Job:
    key: str
    make: Callable[[], Any]  # fresh program inputs for one run; not timed
    run: Callable[[Any], Any]  # the timed call into the program, on make()'s inputs
    verdict: Callable[[Any], str]  # canonical verdict text of the result
    check: Callable[[str], None]  # reference check of a verdict; raises Mismatch


def random_point(rng: random.Random, labels) -> dict:
    return {l: Fraction(rng.randint(1, 97), rng.randint(1, 97)) for l in labels}


def check_positive(text: str) -> None:
    expect(not has_negative_coefficient(text), f"negative coefficient in {text}")


# -- mutation-walks ------------------------------------------------------------------

# Walks are stratified by the peak value size along the walk, measured as the
# value at the all-ones point (the sum of its coefficients, which bounds its
# term count). Each size class gets its natural share of WALK_COUNT, so the tail
# is present in every run in its true proportion but cannot swing the
# totals. The shares are those of 60000 unstratified draws of _draw_walk
# (walk_shares, seeds 1-3). Walks whose values exceed MAX_VALUE, a share
# WALK_SHARE_ABOVE_CAP of all draws, are not drawn: within a single
# factor-of-two size class above it a walk takes from 5 ms to 660 ms, and a
# run cannot hold enough of them to be steady.
WALK_CLASSES = [  # (lowest peak, highest peak + 1, share of all draws)
    (1, 4, 0.5697), (4, 16, 0.2603), (16, 64, 0.0533), (64, 256, 0.0285),
    (256, 512, 0.0064), (512, 1024, 0.0074), (1024, 2048, 0.0059),
]
WALK_SHARE_ABOVE_CAP = 0.0686
MAX_VALUE = WALK_CLASSES[-1][1] - 1
WALK_COUNT = 4000
# Set-up always makes at least this many draws, enough to fill every quota
# for nearly every seed, so that set-up time does not depend on the seed.
WALK_DRAWS = 7500


def _draw_walk(rng: random.Random):
    """A seeded skew-symmetric (or, from a random symmetrizer,
    skew-symmetrizable) matrix of rank 2-5 with a walk of 1-8 mutations,
    no position twice in a row, and its peak value size (None if too big)."""
    rank = rng.randint(2, 5)
    d = [rng.choice((1, 2)) for _ in range(rank)] if rng.random() < 0.3 else [1] * rank
    matrix = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            s = rng.choice((-1, 0, 1))
            matrix[i][j], matrix[j][i] = s * d[j], -s * d[i]
    walk: list[int] = []
    for _ in range(rng.randint(1, 8)):
        walk.append(rng.choice([p for p in range(rank) if not walk or p != walk[-1]]))
    labels, m, values = list(range(rank)), matrix, [Fraction(1)] * rank
    peak = 1
    for k in walk:
        labels, m, values = mutate(labels, m, values, k, k)
        peak = max(peak, values[k])
        if peak > MAX_VALUE:
            return matrix, walk, None
    return matrix, walk, peak


def _size_class(peak: int | None) -> int | None:
    if peak is None:
        return None
    return next(i for i, (lo, hi, _) in enumerate(WALK_CLASSES) if lo <= peak < hi)


def walk_shares(draws: int, seed: int) -> list[float]:
    """Shares of unstratified walk draws in each size class of WALK_CLASSES,
    then the share above MAX_VALUE: the figures WALK_CLASSES records."""
    rng = random.Random(seed)
    counts = [0] * (len(WALK_CLASSES) + 1)
    for _ in range(draws):
        c = _size_class(_draw_walk(rng)[2])
        counts[-1 if c is None else c] += 1
    return [k / draws for k in counts]


def _walk_job(index: int, rng: random.Random, matrix, walk) -> Job:
    rank = len(matrix)
    labels = [f"v{i}" for i in range(rank)]
    entries = [
        (labels[i], labels[j], matrix[i][j])
        for i in range(rank)
        for j in range(rank)
        if matrix[i][j]
    ]
    point = random_point(rng, labels)

    def make():
        return cl.Seed.initial(labels, labels, entries)

    def run(seed):
        current = seed
        for p in walk:
            current = cl.mutate_seed(current, current.labels[p])
        return current

    def verdict(result) -> str:
        return "\n".join(cl.format_poly(result.values[l]) for l in result.labels)

    def check(text: str) -> None:
        texts = text.split("\n")
        expected = walk_values(matrix, [point[l] for l in labels], walk)
        expect(len(texts) == rank, "wrong number of values")
        for i, (t, want) in enumerate(zip(texts, expected)):
            expect(evaluate(t, point) == want, f"value at position {i} is wrong: {t}")
            check_positive(t)

    return Job(f"walk{index}", make, run, verdict, check)


def setup_mutation_walks(rng: random.Random, workdir: str) -> list[Job]:
    quotas = [round(WALK_COUNT * share / (1 - WALK_SHARE_ABOVE_CAP)) for _, _, share in WALK_CLASSES]
    chosen = []
    draws = 0
    while any(quotas) or draws < WALK_DRAWS:
        draws += 1
        matrix, walk, peak = _draw_walk(rng)
        c = _size_class(peak)
        if c is not None and quotas[c]:
            quotas[c] -= 1
            chosen.append((matrix, walk))
    rng.shuffle(chosen)
    return [_walk_job(i, rng, m, w) for i, (m, w) in enumerate(chosen)]


# -- polygon-flips -------------------------------------------------------------------

POLYGON = 8  # C(6) = 132 triangulations, 660 flips
# Points are k/97 for seeded distinct k: one prime denominator keeps the cost
# of Fraction arithmetic the same for every seed.
DENOMINATOR = 97


def polygon_diagonal_sets(n: int) -> list[frozenset]:
    """All triangulations of the convex n-gon on vertices 0..n-1, each as its
    set of internal diagonals (i, j), i < j."""

    def tri(i, j):
        if j - i < 2:
            return [frozenset()]
        out = []
        for k in range(i + 1, j):
            for left in tri(i, k):
                for right in tri(k, j):
                    d = set(left | right)
                    if k - i > 1:
                        d.add((i, k))
                    if j - k > 1:
                        d.add((k, j))
                    out.append(frozenset(d))
        return out

    return tri(0, n - 1)


def _arc_label(p: Fraction, q: Fraction) -> str:
    p, q = min(p, q), max(p, q)
    return f"{p.numerator}/{p.denominator}~{q.numerator}/{q.denominator}"


def _flip_job(index: int, rng, points, edges: frozenset, d: tuple) -> Job:
    n = len(points)
    i, j = d
    apexes = [
        k
        for k in range(n)
        if k not in d and tuple(sorted((i, k))) in edges and tuple(sorted((j, k))) in edges
    ]
    k1, k2 = apexes  # one on each side of d in a triangulation
    flipped = tuple(sorted((k1, k2)))
    label = {e: _arc_label(points[e[0]], points[e[1]]) for e in edges | {flipped}}
    point = random_point(rng, label.values())

    def side(a, b):
        return point[label[tuple(sorted((a, b)))]]

    def make():
        arcs = [cl.Arc.of(points[a], points[b]) for a, b in sorted(edges)]
        return cl.validate_triangulation(points, arcs), cl.Arc.of(points[i], points[j])

    def run(inputs):
        t, arc = inputs
        u = cl.flip_arc(t, arc)
        s = cl.seed_from_triangulation(t)
        su = cl.seed_from_triangulation(u)
        return t, u, su, s, cl.mutate_seed(s, arc.label)

    def verdict(result) -> str:
        t, u, su, s, sm = result
        added = [a.label for a in u.arcs - t.arcs]
        new = next(l for l in sm.labels if l not in s.labels)
        fl = added[0] if len(added) == 1 else None
        relabeled = {
            (fl if v == new else v): {(fl if w == new else w): b for w, b in row.items()}
            for v, row in sm.matrix.items()
        }
        return json.dumps(
            {
                "added": added,
                "value": cl.format_poly(sm.values[new]),
                "matrix_match": relabeled == su.matrix,
                "exchangeable_match": {fl if v == new else v for v in sm.exchangeable}
                == set(su.exchangeable),
                "exchangeable": len(su.exchangeable),
            },
            sort_keys=True,
        )

    def check(text: str) -> None:
        got = json.loads(text)
        expect(got["added"] == [label[flipped]], f"flip added {got['added']}")
        expect(got["matrix_match"], "flip and mutation matrices differ")
        expect(got["exchangeable_match"], "flip and mutation exchangeables differ")
        expect(got["exchangeable"] == n - 3, "wrong number of flippable diagonals")
        ptolemy = (side(i, k1) * side(j, k2) + side(i, k2) * side(j, k1)) / point[label[d]]
        expect(evaluate(got["value"], point) == ptolemy, "mutated value breaks Ptolemy")

    return Job(f"flip{index}", make, run, verdict, check)


def setup_polygon_flips(rng: random.Random, workdir: str) -> list[Job]:
    n = POLYGON
    points = sorted(Fraction(k, DENOMINATOR) for k in rng.sample(range(DENOMINATOR), n))
    triangulations = polygon_diagonal_sets(n)
    expect(len(triangulations) == catalan(n - 2), "polygon enumeration is wrong")
    rng.shuffle(triangulations)
    sides = frozenset((i, i + 1) for i in range(n - 1)) | {(0, n - 1)}
    jobs = []
    for diagonals in triangulations:
        edges = diagonals | sides
        for d in sorted(diagonals):
            jobs.append(_flip_job(len(jobs), rng, points, edges, d))
    expect(len(jobs) == catalan(n - 2) * (n - 3), "flip count is wrong")
    return jobs


# -- CLI jobs ------------------------------------------------------------------------

VERDICT_KEYS = (
    "count", "values", "cm1", "cm2", "cm3", "counterexample", "nodes", "status",
    "witness", "stages", "value", "stage", "positive", "negative_terms", "error",
    "inconclusive",
)


def cli_call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = clusterlab.cli.main(["--format", "structured", *argv])
    except SystemExit as exc:  # argparse rejections exit 3
        code = exc.code
    return code, out.getvalue()


def cli_verdict(result) -> str:
    code, out = result
    data = json.loads(out) if out.strip() else {}
    return json.dumps(
        {"exit": code, **{k: data[k] for k in VERDICT_KEYS if k in data}}, sort_keys=True
    )


def cli_job(key: str, argv: list[str], check: Callable[[dict], None]) -> Job:
    return Job(key, lambda: argv, cli_call, cli_verdict, lambda text: check(json.loads(text)))


def write_json(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


# -- mutation-class --------------------------------------------------------------------


def dynkin(rng: random.Random, kind: str, n: int, copy: int):
    """A Dynkin diagram as (labels, entries), with the orientation pattern
    of `copy` and a seeded labelling. Orientations change the values and so
    the cost; fixing them per copy gives every seed the same mix. B and C put
    the double bond at the end of the path."""
    bonds = [(i, i + 1, 1, 1) for i in range(n - 1)]
    if kind in "BC":
        bonds[-1] = (n - 2, n - 1, 2, 1) if kind == "B" else (n - 2, n - 1, 1, 2)
    elif kind == "D":
        bonds[-1] = (n - 3, n - 1, 1, 1)
    elif kind == "G":
        bonds = [(0, 1, 3, 1)]
    names = [f"x{i}" for i in range(1, n + 1)]
    rng.shuffle(names)
    orientation = random.Random(copy)
    entries = []
    for i, j, p, q in bonds:
        sign = orientation.choice((1, -1))
        entries += [[names[i], names[j], sign * p], [names[j], names[i], -sign * q]]
    return sorted(names), entries


def seed_data(labels, entries, exchangeable=None) -> dict:
    ex = set(labels if exchangeable is None else exchangeable)
    return {
        "variables": [{"id": l, "exchangeable": l in ex} for l in labels],
        "matrix": entries,
    }


def identity_map(labels) -> dict:
    return {"assignment": [[l, l] for l in labels]}


# (kind, n[, depth], copies): each copy has its own orientation and a seeded
# labelling, so a pass holds over a hundred distinct jobs of a fixed mix. The
# copies are chosen so that the median and the 90th percentile fall inside
# runs of jobs of like cost, not on a step between two kinds of job.
ENUMERATE = [("A", 2, 4), ("A", 3, 6), ("A", 4, 4), ("A", 5, 3), ("B", 2, 5), ("B", 3, 4),
             ("B", 4, 3), ("C", 3, 4), ("C", 4, 3), ("D", 4, 3), ("D", 5, 1), ("G", 2, 5)]
SEEDS = [("A", 3, 3), ("A", 4, 3), ("A", 5, 2), ("B", 3, 2), ("C", 4, 1), ("D", 4, 2), ("G", 2, 2)]
IDENTITY = [("A", 3, 4, 3), ("A", 4, 3, 3), ("A", 5, 4, 1), ("A", 5, 3, 1), ("B", 3, 3, 3),
            ("D", 4, 3, 2), ("G", 2, 4, 3)]
OPPOSITE = [("A", 3, 4, 2), ("A", 4, 3, 2), ("D", 4, 3, 2)]
SMALL_COPIES = 4  # of each small acceptance map: specializing, folding, composite, ideal
CLASS_DEPTH = 40  # past the exchange-graph diameter of every type above

A2 = seed_data(["y1", "y2"], [["y1", "y2", 1], ["y2", "y1", -1]])
FAILING_RHS = "y1^-1*y2 + y1^-1"


def _enumerate_check(kind, n):
    def check(v):
        expect(v["exit"] == 0, f"exit {v['exit']}")
        expect(v["count"] == variable_count(kind, n) == len(set(v["values"])), "wrong count")
        for text in v["values"]:
            check_positive(text)

    return check


def _cm3_check(code, nodes=None, counterexample=None):
    def check(v):
        expect(v["exit"] == code, f"exit {v['exit']}, expected {code}")
        if nodes is not None:
            expect(v.get("nodes") == nodes, f"{v.get('nodes')} nodes, expected {nodes}")
        expect(v.get("counterexample") == counterexample, "wrong counterexample")

    return check


def _seeds_job(key, kind, n, labels, entries) -> Job:
    def check(text):
        expect(json.loads(text)["seeds"] == seed_count(kind, n), "wrong seed count")

    return Job(
        key,
        lambda: cl.Seed.initial(labels, labels, [tuple(e) for e in entries]),
        lambda seed: cl.enumerate_seeds(seed, CLASS_DEPTH),
        lambda result: json.dumps({"seeds": len(result)}),
        check,
    )


def setup_mutation_class(rng: random.Random, workdir: str) -> list[Job]:
    jobs: list[Job] = []
    for kind, n, copies in ENUMERATE:
        for c in range(copies):
            path = write_json(workdir, f"enum-{kind}{n}-{c}.seed", seed_data(*dynkin(rng, kind, n, c)))
            jobs.append(
                cli_job(f"enumerate-{kind}{n}-{c}", ["enumerate", "--seed", path, "--depth", str(CLASS_DEPTH)],
                        _enumerate_check(kind, n))
            )
    for kind, n, copies in SEEDS:
        for c in range(copies):
            jobs.append(_seeds_job(f"seeds-{kind}{n}-{c}", kind, n, *dynkin(rng, kind, n, c)))
    for family, maps in (("identity", IDENTITY), ("opposite", OPPOSITE)):
        for kind, n, depth, copies in maps:
            for c in range(copies):
                name = f"{family}-{kind}{n}-d{depth}-{c}"
                labels, entries = dynkin(rng, kind, n, c)
                src = write_json(workdir, f"{name}.seed", seed_data(labels, entries))
                dst = src
                if family == "opposite":
                    flipped = [[v, w, -b] for v, w, b in entries]
                    dst = write_json(workdir, f"{name}-dst.seed", seed_data(labels, flipped))
                fmap = write_json(workdir, f"{name}.map", identity_map(labels))
                jobs.append(
                    cli_job(
                        name,
                        ["check-morphism", "--src", src, "--dst", dst, "--map", fmap, "--depth", str(depth)],
                        _cm3_check(0, sequence_count(n, depth)),
                    )
                )

    a2 = write_json(workdir, "a2.seed", A2)
    # Acceptance 2: the specializing map x3 -> 1; only x2 is biadmissible.
    example = write_json(
        workdir,
        "example.seed",
        seed_data(["x1", "x2", "x3"], [["x1", "x2", 1], ["x2", "x1", -1], ["x3", "x2", 1], ["x2", "x3", -1]],
                  exchangeable=["x2", "x3"]),
    )
    special = write_json(workdir, "special.map", {"assignment": [["x1", "y1"], ["x2", "y2"], ["x3", 1]]})
    for c in range(SMALL_COPIES):
        depth = 3 + c % 2
        jobs.append(
            cli_job(f"specializing-d{depth}-{c}",
                    ["check-morphism", "--src", example, "--dst", a2, "--map", special, "--depth", str(depth)],
                    _cm3_check(0, sequence_count(1, depth)))
        )
    # Coefficient folding: a and b have equal rows, so their images stay consistent.
    for c in range(SMALL_COPIES):
        labels, entries = dynkin(rng, "A", 3, c)
        top = labels[c % 3]
        src_entries = entries + [[top, "a", 1], ["a", top, -1], [top, "b", 1], ["b", top, -1]]
        dst_entries = entries + [[top, "c", 2], ["c", top, -2]]
        fold_src = write_json(workdir, f"fold-{c}-src.seed", seed_data(labels + ["a", "b"], src_entries, labels))
        fold_dst = write_json(workdir, f"fold-{c}-dst.seed", seed_data(labels + ["c"], dst_entries, labels))
        fold = write_json(workdir, f"fold-{c}.map", {"assignment": [[l, l] for l in labels] + [["a", "c"], ["b", "c"]]})
        jobs.append(
            cli_job(f"folding-A3-d3-{c}",
                    ["check-morphism", "--src", fold_src, "--dst", fold_dst, "--map", fold, "--depth", "3"],
                    _cm3_check(0, sequence_count(3, 3)))
        )
    # Acceptance 4: the composite x1, x2, x3 -> z -> y1 fails CM3 at (x2,).
    path3 = write_json(
        workdir,
        "path3.seed",
        seed_data(["x1", "x2", "x3"], [["x1", "x2", 1], ["x2", "x1", -1], ["x2", "x3", 1], ["x3", "x2", -1]],
                  exchangeable=["x2"]),
    )
    folded = write_json(workdir, "composite.map", {"assignment": [["x1", "y1"], ["x2", "y1"], ["x3", "y1"]]})
    counterexample = {"sequence": ["x2"], "variable": "x2", "lhs": "2", "rhs": FAILING_RHS}
    for c in range(2 * SMALL_COPIES):
        depth = 3 + c % 2
        jobs.append(
            cli_job(f"composite-d{depth}-{c}",
                    ["check-morphism", "--src", path3, "--dst", a2, "--map", folded, "--depth", str(depth)],
                    _cm3_check(1, counterexample=counterexample))
        )
    # Acceptance 3: the non-ideal morphism with witness y1.
    ideal_src = write_json(
        workdir,
        "ideal-src.seed",
        seed_data(["a1", "x", "a2"], [["a1", "x", 1], ["x", "a1", -1], ["x", "a2", 1], ["a2", "x", -1]],
                  exchangeable=["x"]),
    )
    ideal_map = write_json(
        workdir, "ideal.map",
        {"assignment": [["a1", 1], ["a2", -1], ["x", 0]], "extra": [["a1*x^-1 + a2*x^-1", "y1"]]},
    )

    def ideal_check(v):
        expect(v["exit"] == 1 and v.get("status") == "witness", f"exit {v['exit']}")
        expect(v.get("witness") == "y1", f"witness {v.get('witness')}")

    for c in range(SMALL_COPIES):
        jobs.append(cli_job(f"check-ideal-{c}", ["check-ideal", "--src", ideal_src, "--dst", a2, "--map", ideal_map],
                            ideal_check))
    rng.shuffle(jobs)
    return jobs


# -- infinite-rank -------------------------------------------------------------------

FILTRATIONS = [("path-quiver", 16), ("path-quiver", 24), ("fan", 8), ("fan", 12),
               ("split-fountain", 6), ("split-fountain", 8), ("nest", 12), ("nest", 16)]
ORACLES = {
    "path-quiver": cl.PathQuiverOracle,
    "fan": cl.fan_oracle,
    "split-fountain": cl.split_fountain_oracle,
    "nest": cl.nest_oracle,
}
BALL_RADIUS = 3
# Jobs per oracle and verb. The cheap path-quiver jobs are the more numerous,
# so that the median falls among the fan jobs and the 90th percentile among
# the split-fountain ones, not on a step between two oracles.
BALL_WALKS = {
    ("path-quiver", "stable-mutate"): 20, ("path-quiver", "positivity"): 8,
    ("fan", "stable-mutate"): 16, ("fan", "positivity"): 6,
    ("split-fountain", "stable-mutate"): 16, ("split-fountain", "positivity"): 6,
    ("nest", "stable-mutate"): 16, ("nest", "positivity"): 6,
}
SINGLE_STEPS = 12


def _path_label(i: int) -> str:
    return f"x{i}" if i >= 0 else f"xm{-i}"


def _filtration_check(oracle, steps):
    def check(v):
        expect(v["exit"] == 0, f"exit {v['exit']}")
        sizes = [s["size"] for s in v["stages"]]
        expect(len(sizes) == steps, "wrong number of stages")
        expect(sizes == sorted(sizes), "stages shrink")
        if oracle == "path-quiver":
            expect(sizes == [2 * i + 1 for i in range(steps)], f"path-quiver stages {sizes}")

    return check


def _stable_job(key, verb, oracle, ball, matrix, steps, target, rng) -> Job:
    labels = list(ball.labels)
    point = random_point(rng, labels)
    current, values, m = list(labels), [point[l] for l in labels], matrix
    desc = target
    for label, new in steps:
        current, m, values = mutate(current, m, values, current.index(label), new)
        if label == desc:
            desc = new
    want = values[current.index(desc)]
    sequence = ",".join(label for label, _ in steps)

    def check(v):
        expect(v["exit"] == 0, f"exit {v['exit']}")
        expect(evaluate(v["value"], point) == want, f"value {v['value']} is wrong")
        check_positive(v["value"])
        if verb == "positivity":
            expect(v["positive"] is True, "not reported positive")

    return cli_job(key, [verb, "--oracle", oracle, "--sequence", sequence, "--target", target], check)


def _walk_ball(rng: random.Random, ball, length: int):
    """A walk of current labels: each step names a label of the seed it is
    applied to, so after mutating x1 the walk continues with x1'1."""
    current, steps = ball, []
    for _ in range(length):
        label = rng.choice(sorted(current.exchangeable))
        nxt = cl.mutate_seed(current, label)
        (new,) = set(nxt.labels) - set(current.labels)
        steps.append((label, new))
        current = nxt
    return steps


def setup_infinite_rank(rng: random.Random, workdir: str) -> list[Job]:
    jobs = [
        cli_job(f"filtration-{o}-{s}", ["filtration", "--oracle", o, "--steps", str(s)], _filtration_check(o, s))
        for o, s in FILTRATIONS
    ]
    for oracle, factory in ORACLES.items():
        instance = factory()
        ball = cl.materialize_ball(instance, instance.representatives()[0], BALL_RADIUS)
        labels = list(ball.labels)
        if oracle == "path-quiver":
            matrix = path_quiver_matrix(labels)
        else:
            matrix = triangulation_matrix(labels)
            for v in ball.exchangeable:
                expect(sum(map(abs, matrix[labels.index(v)])) == 4, f"{v} is not flanked by two triangles")
        for verb in ("stable-mutate", "positivity"):
            for w in range(BALL_WALKS[oracle, verb]):
                steps = _walk_ball(rng, ball, 1 + w % 4)
                jobs.append(_stable_job(f"{verb}-{oracle}-{w}", verb, oracle, ball, matrix, steps, steps[0][0], rng))
    # (x_{i-1} + x_{i+1}) / x_i: one path-quiver step in closed form.
    for s in range(SINGLE_STEPS):
        i = rng.randint(-2, 2)
        x, left, right = _path_label(i), _path_label(i - 1), _path_label(i + 1)
        point = random_point(rng, [x, left, right])
        want = (point[left] + point[right]) / point[x]

        def check(v, point=point, want=want):
            expect(v["exit"] == 0, f"exit {v['exit']}")
            expect(evaluate(v["value"], point) == want, f"single step gives {v['value']}")

        jobs.append(cli_job(f"single-step-{s}", ["stable-mutate", "--oracle", "path-quiver", "--sequence", x, "--target", x], check))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "mutation-walks": setup_mutation_walks,
    "polygon-flips": setup_polygon_flips,
    "mutation-class": setup_mutation_class,
    "infinite-rank": setup_infinite_rank,
}
