"""Mutation on positions: property tests on hypothesis-drawn seeds.

The CM3 walk and stable mutation track a cluster variable by its position
in `Seed.labels`; these tests pin the contract they rely on. `mutate_seed`
reads and writes a seed's positional form; `reference_mutate` below is the
same mutation on the label-keyed dicts, the form mutation took before, and
the positional route must agree with it step by step.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterlab.colimits import _mutate_tracking  # noqa: E402
from clusterlab.errors import ClusterLabError, NotExchangeable  # noqa: E402
from clusterlab.laurent import LaurentPoly, lp_exact_div  # noqa: E402
from clusterlab.seeds import Seed, fresh_label, mutate_seed  # noqa: E402


def poly_product(factors):
    """The product of the factors, 1 (on no names) if there are none: each
    side of the reference's numerator, a product of powers."""
    out = None
    for f in factors:
        out = f if out is None else out * f
    return LaurentPoly.one() if out is None else out


def reference_mutate(seed: Seed, x) -> Seed:
    """mu_x on labels: a fresh division with no exchange table, the values
    dict, the matrix dict and the exchangeable set rebuilt, and the result
    checked by the constructor (which names two labels sharing a value in
    position order, as mutate_seed does)."""
    if x not in seed.exchangeable:
        raise NotExchangeable(x)
    row = seed.matrix.get(x, {})
    val = seed.values
    pos = poly_product(val[v] ** e for v, e in row.items() if e > 0)
    neg = poly_product(val[v] ** -e for v, e in row.items() if e < 0)
    new_value = lp_exact_div(pos + neg, val[x])

    labels = seed.labels
    new_label = fresh_label(x, labels)
    at = labels.index(x)
    labels = labels[:at] + (new_label,) + labels[at + 1:]
    values = dict(val)
    del values[x]
    values[new_label] = new_value

    # x's row and column change sign, and b_vw gains |b_vx| b_xw where b_vx
    # and b_xw agree in sign
    matrix = dict(seed.matrix)
    matrix.pop(x, None)
    if row:
        matrix[new_label] = {w: -e for w, e in row.items()}
    for v, r in seed.matrix.items():
        c = r.get(x)
        if c is None:
            continue
        matrix[v] = r = dict(r)
        del r[x]
        r[new_label] = -c
        for w, e in row.items():
            if (c > 0) == (e > 0):
                n = r.get(w, 0) + abs(c) * e
                if n:
                    r[w] = n
                else:
                    del r[w]
    return Seed(labels, seed.exchangeable - {x} | {new_label}, matrix, values)


@st.composite
def seeds(draw):
    """A seed of rank 1-5 after up to two mutations: skew-symmetric with
    entries in {-1, 0, 1}, or skew-symmetrizable, with mirrored entries
    b_ij = s d_j and b_ji = -s d_i for a drawn symmetrizer d with entries
    1-3, so that rows hold entries of 2 and 3 and may have one sign."""
    rank = draw(st.integers(1, 5))
    labels = [f"v{i}" for i in range(rank)]
    d = [draw(st.integers(1, 3)) for _ in labels] if draw(st.booleans()) else [1] * rank
    entries = []
    for i in range(rank):
        for j in range(i + 1, rank):
            s = draw(st.integers(-1, 1))
            if s:
                entries += [(labels[i], labels[j], s * d[j]), (labels[j], labels[i], -s * d[i])]
    seed = Seed.initial(labels, draw(st.sets(st.sampled_from(labels), min_size=1)), entries)
    for _ in range(draw(st.integers(0, 2))):
        seed = mutate_seed(seed, draw(st.sampled_from(sorted(seed.exchangeable))))
    return seed


@settings(max_examples=200, deadline=None)
@given(seeds(), st.data())
def test_mutation_changes_only_the_mutated_position(seed, data):
    x = data.draw(st.sampled_from(sorted(seed.exchangeable)))
    new = mutate_seed(seed, x)
    i = seed.labels.index(x)
    assert len(new.labels) == len(seed.labels)
    assert [k for k, (a, b) in enumerate(zip(seed.labels, new.labels)) if a != b] == [i]
    assert new.labels[i] not in seed.labels


# a path symmetrized by d = (1, 2, 3): the rows {v1: 2}, {v0: -1, v2: 3} and
# {v1: -2} hold every |b| up to 3, and two of them have one sign
PATH_D123 = Seed.initial(["v0", "v1", "v2"], ["v0", "v1", "v2"],
                        [("v0", "v1", 2), ("v1", "v0", -1), ("v1", "v2", 3), ("v2", "v1", -2)])


@settings(max_examples=150, deadline=None)
@given(seeds())
@example(PATH_D123)
@example(Seed.initial(["v0"], ["v0"], []))
def test_each_numerator_branch_agrees_with_the_reference(seed):
    # mutate_seed multiplies x's row in one loop, v, v * v or v ** |b| per
    # entry, and puts 1 on an empty side; the reference takes poly_product
    # of powers on each side. Every step from the seed must agree.
    for x in sorted(seed.exchangeable):
        (mine, error), (ref, ref_error) = _outcome(mutate_seed, seed, x), _outcome(reference_mutate, seed, x)
        assert error == ref_error
        if not error:
            assert (mine.labels, mine.values, mine.matrix) == (ref.labels, ref.values, ref.matrix)
            assert mine.same_seed(ref)


@settings(max_examples=200, deadline=None)
@given(seeds(), st.data())
def test_tracking_by_position_matches_chasing_labels(seed, data):
    target = data.draw(st.sampled_from(seed.labels))
    sequence, current, desc = [], seed, target
    for _ in range(data.draw(st.integers(0, 3))):
        step = data.draw(st.sampled_from(sorted(current.exchangeable)))
        after = mutate_seed(current, step)
        if step == desc:
            (desc,) = set(after.labels) - set(current.labels)
        sequence.append(step)
        current = after
    assert _mutate_tracking(seed, sequence, target) == (current.values[desc], True, None)


@st.composite
def seeds_and_walks(draw):
    """A seed of rank 1-6 and a walk of up to 6 positions. Each pair of
    positions is unlinked or linked skew-symmetrizably (b_ij = s d_j,
    b_ji = -s d_i for a drawn symmetrizer d); some labels are coefficients,
    and some seeds give one label the value 2 / v_i, which mutating v_i on
    an empty row would give a second time. A step at a coefficient or a
    shared value ends the walk with an error."""
    rank = draw(st.integers(1, 6))
    labels = [f"v{i}" for i in range(rank)]
    d = [draw(st.integers(1, 2)) for _ in labels]
    matrix: dict = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            if s := draw(st.sampled_from([0, 0, 1, -1])):
                matrix.setdefault(labels[i], {})[labels[j]] = s * d[j]
                matrix.setdefault(labels[j], {})[labels[i]] = -s * d[i]
    values = {v: LaurentPoly.var(v) for v in labels}
    if rank > 1 and draw(st.integers(0, 4)) == 0:
        k, i = draw(st.permutations(range(rank)))[:2]
        values[labels[k]] = LaurentPoly.const(2) * LaurentPoly.var(labels[i], -1)
    exchangeable = frozenset(v for v in labels if draw(st.integers(0, 3)))
    seed = Seed(tuple(labels), exchangeable, matrix, values)
    mutable = [i for i, v in enumerate(labels) if v in exchangeable] or [0]
    step = st.one_of(st.sampled_from(mutable), st.integers(0, rank - 1))  # mostly exchangeable
    return seed, draw(st.lists(step, min_size=1, max_size=6))


def _outcome(mutate, seed, x):
    try:
        return mutate(seed, x), None
    except ClusterLabError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(seeds_and_walks())
def test_positions_agree_with_the_label_keyed_reference(drawn):
    # The positional route carries its exchange table along the walk, the
    # reference divides afresh; every view of every seed must agree, and a
    # step that fails must fail the same way on both.
    seed, walk = drawn
    mine = ref = seed
    for p in walk:
        if any(abs(b) > 4 for r in ref.matrix.values() for b in r.values()):
            break  # entries of infinite type grow along a walk, and the values with them
        x = ref.labels[p]
        (mine, error), (ref, ref_error) = _outcome(mutate_seed, mine, x), _outcome(reference_mutate, ref, x)
        assert error == ref_error
        if error:
            break
        assert mine.labels == ref.labels
        assert mine.values == ref.values
        assert mine.matrix == ref.matrix
        assert mine.exchangeable == ref.exchangeable
        assert mine.same_seed(ref)
