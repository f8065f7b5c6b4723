"""Fuzzed `--sequence` and `--target` values for `stable-mutate` and
`positivity`: every call exits 0, 1, 2 or 3, never with a traceback, and a
rerun in the same process prints the same bytes."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterlab.cli import main  # noqa: E402
from clusterlab.colimits import ORACLES, materialize_ball  # noqa: E402
from clusterlab.seeds import mutate_seed  # noqa: E402

# the radius-2 ball around each oracle's representative, to walk in
BALLS = {
    name: materialize_ball(ORACLES[name](), ORACLES[name]().representatives()[0], 2)
    for name in ("path-quiver", "fan")
}
# made labels, and names that are no label at all
MADE = ["x0'1", "x1'1", "x1'2", "0/1~1/3'1", "0/1~1/4'1", "0/1~3/8'1'1"]
JUNK = ["", "x", "y", "x1'", "'1", "xm0", "x01", "~", "1/0~1/4", "0/1~0/1", "0/2~1/4", " x0"]


@st.composite
def walks(draw, ball):
    """Current labels: each step names an exchangeable label of the ball
    mutated by the steps before it, so after x1 a walk may go on with x1'1."""
    seed, steps = ball, []
    for _ in range(draw(st.integers(0, 4))):
        label = draw(st.sampled_from(sorted(seed.exchangeable)))
        seed = mutate_seed(seed, label)
        steps.append(label)
    return steps, list(seed.labels)


@st.composite
def calls(draw):
    verb = draw(st.sampled_from(["stable-mutate", "positivity"]))
    oracle = draw(st.sampled_from(sorted(BALLS)))
    steps, labels = draw(walks(BALLS[oracle]))
    names = st.sampled_from(labels + MADE + JUNK)
    for _ in range(max(0, draw(st.integers(-2, 2)))):  # a stray name or a repeated step
        name = draw(st.sampled_from(steps) if steps and draw(st.booleans()) else names)
        steps.insert(draw(st.integers(0, len(steps))), name)
    sequence = ",".join(steps)
    if draw(st.integers(0, 5)) == 0:  # a stray comma
        at = draw(st.integers(0, len(sequence)))
        sequence = sequence[:at] + "," + sequence[at:]
    target = draw(names if draw(st.integers(0, 4)) == 0 else st.sampled_from(BALLS[oracle].labels))
    return [verb, "--oracle", oracle, "--sequence", sequence, "--target", target]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(calls())
def test_sequences_exit_cleanly_and_repeat_exactly(argv):
    first = run(argv)
    assert first[0] in (0, 1, 2, 3), (argv, first)
    assert "Traceback" not in first[1] + first[2]
    assert run(argv) == first
