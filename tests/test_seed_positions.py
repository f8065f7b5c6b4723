"""Mutation keeps positions: property tests on hypothesis-drawn seeds.

The CM3 walk and stable mutation track a cluster variable by its position
in `Seed.labels`; these tests pin the contract they rely on.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterlab.colimits import _mutate_tracking  # noqa: E402
from clusterlab.seeds import Seed, mutate_seed  # noqa: E402


@st.composite
def seeds(draw):
    """A skew-symmetric seed of rank 1-5 after up to two mutations."""
    rank = draw(st.integers(1, 5))
    labels = [f"v{i}" for i in range(rank)]
    entries = []
    for i in range(rank):
        for j in range(i + 1, rank):
            b = draw(st.integers(-1, 1))
            if b:
                entries += [(labels[i], labels[j], b), (labels[j], labels[i], -b)]
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
