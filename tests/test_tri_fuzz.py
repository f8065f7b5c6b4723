"""Fuzzed `.tri` files through the CLI: every file gets an exit code in
{0, 1, 2, 3}, never a traceback, and the same bytes when run again in the
same process (so nothing one run computes leaks into the next); a file with
a key the loader does not read, or a family without `limit` or `scale`,
exits 3. Rotated copies of valid family files exit 0 from every verb that
reads them."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterlab.cli import main  # noqa: E402
from clusterlab.disc import FAMILY_KINDS  # noqa: E402

VERBS = (
    ["validate-tri"],
    ["limit-arcs"],
    ["filtration", "--steps", "3"],
    ["tri-seed"],
    ["flip", "--arc", "0/1~1/2"],
)

ANGLES = sorted({str(Fraction(k, d)) for d in (2, 3, 4, 6, 8, 12) for k in range(d)})
SCALES = ["1/2", "1/3", "1/4", "1/5", "1/6", "1/8", "1/12", "1/24", "0", "-1/4"]
# values of the wrong type or form, which must exit 3
JUNK = ["1/0", "half", 0.5, 1, None, [1, 2], True]
FOUNTAINS = ("fountain", "left-fountain", "right-fountain")


def rarely(draw) -> bool:
    """True one draw in twenty."""
    return draw(st.integers(0, 19)) == 0


def misspelt(key: str) -> str:
    """The key with its second letter left out, as a typing slip."""
    return key[:1] + key[2:]


TRI_KEYS = {"points", "arcs", "families"}
FAMILY_KEYS = {"kind", "limit", "scale", "base", "limit2", "scale2", "start"}


def has_key_flaw(data) -> bool:
    """Whether a file has a key the loader does not read, or a family
    without `limit` or `scale`: every verb refuses it as an input error."""
    families = data.get("families", [])
    return not set(data) <= TRI_KEYS or any(
        not set(f) <= FAMILY_KEYS or not {"limit", "scale"} <= set(f) for f in families
    )


@st.composite
def angles(draw):
    return draw(st.sampled_from(JUNK if rarely(draw) else ANGLES))


@st.composite
def scales(draw):
    return draw(st.sampled_from(JUNK if rarely(draw) else SCALES))


@st.composite
def family_records(draw):
    kind = "spiral" if rarely(draw) else draw(st.sampled_from(FAMILY_KINDS))
    record = {"kind": kind, "limit": draw(angles()), "scale": draw(scales())}
    if draw(st.booleans()):
        record["start"] = "2" if rarely(draw) else draw(st.integers(0, 4))
    # the fields a kind needs are left out, and others put in, now and then
    if rarely(draw) != (kind in FOUNTAINS):
        record["base"] = draw(angles())
    if rarely(draw) != (kind == "half-nest"):
        record["limit2"] = draw(angles())
        if draw(st.booleans()):
            record["scale2"] = draw(scales())
    # and now and then limit or scale is left out, or a key misspelt
    if rarely(draw):
        key = draw(st.sampled_from(sorted(record)))
        flaw = draw(st.sampled_from(["drop limit", "drop scale", "misspell"]))
        if flaw == "misspell":
            record[misspelt(key)] = record.pop(key)
        else:
            del record[flaw.split()[1]]
    return record


@st.composite
def polygon_files(draw):
    """A triangulated convex n-gon on the points k/n, n in {4, 6, 8}, with
    the diagonal {0, 1/2}, so `flip --arc 0/1~1/2` applies; now and then
    an arc is dropped or another one added."""
    n = draw(st.sampled_from([4, 6, 8]))
    pairs = set()

    def triangulate(poly):
        # a triangle on the side poly[0] - poly[-1], then the polygons beside it
        if len(poly) > 2:
            k = draw(st.integers(1, len(poly) - 2))
            for i, j in ((poly[0], poly[k]), (poly[k], poly[-1]), (poly[0], poly[-1])):
                pairs.add((min(i, j), max(i, j)))
            triangulate(poly[: k + 1])
            triangulate(poly[k:])

    triangulate(list(range(n // 2 + 1)))
    triangulate(list(range(n // 2, n)) + [0])
    arcs = [[str(Fraction(i, n)), str(Fraction(j, n))] for i, j in sorted(pairs)]
    if rarely(draw):
        del arcs[draw(st.integers(0, len(arcs) - 1))]
    if rarely(draw):
        arcs.append([draw(angles()), draw(angles())])
    return {"points": [str(Fraction(k, n)) for k in range(n)], "arcs": arcs}


@st.composite
def tri_files(draw):
    """Infinite triangulations, and finite ones: polygon_files now and
    then, and random points and arcs (mostly invalid) when no family is
    drawn."""
    if draw(st.integers(0, 5)) == 0:
        return draw(polygon_files())
    data = {"families": draw(st.lists(family_records(), min_size=0, max_size=2))}
    if draw(st.booleans()):
        data["points"] = draw(st.lists(angles(), max_size=3))
    if draw(st.booleans()):
        data["arcs"] = draw(st.lists(st.lists(angles(), min_size=2, max_size=2), max_size=2))
    if rarely(draw):
        key = draw(st.sampled_from(sorted(data)))
        data[misspelt(key)] = data.pop(key)
    return data


# valid infinite triangulations: the fan, split-fountain and nest oracles,
# a two-sided fountain, a half-nest and a left-fountain
TEMPLATES = [
    {"families": [{"kind": "right-fountain", "base": "0", "limit": "1/2", "scale": "1/2", "start": 2}]},
    {
        "points": ["1/2", "1/6", "5/6"],
        "arcs": [["1/4", "3/4"]],
        "families": [
            {"kind": "left-fountain", "base": "1/4", "limit": "0", "scale": "1/2", "start": 4},
            {"kind": "right-fountain", "base": "3/4", "limit": "0", "scale": "1/2", "start": 4},
        ],
    },
    {"families": [{"kind": "nest", "limit": "1/2", "scale": "1/4"}]},
    {"families": [{"kind": "fountain", "base": "0", "limit": "1/2", "scale": "1/4", "start": 2}]},
    {"families": [{"kind": "half-nest", "limit": "1/4", "limit2": "3/4", "scale": "1/8"}]},
    {"families": [{"kind": "left-fountain", "base": "0", "limit": "1/2", "scale": "1/8", "start": 2}]},
]


@st.composite
def rotated_templates(draw):
    """One of TEMPLATES turned by k/d of a turn, d in {5, 7, 12}."""
    data = draw(st.sampled_from(TEMPLATES))
    d = draw(st.sampled_from([5, 7, 12]))
    turn = Fraction(draw(st.integers(0, d - 1)), d)
    rot = lambda x: str((Fraction(x) + turn) % 1)
    out = {"families": [
        {key: rot(v) if key in ("base", "limit", "limit2") else v for key, v in fam.items()}
        for fam in data["families"]
    ]}
    if "points" in data:
        out["points"] = [rot(x) for x in data["points"]]
        out["arcs"] = [[rot(x) for x in pair] for pair in data["arcs"]]
    return out


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(tri_files())
def test_tri_files_exit_cleanly_and_repeat_exactly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.tri")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for verb in VERBS:
            argv = [verb[0], "--tri", path, *verb[1:]]
            first = run(argv)
            assert first[0] in (0, 1, 2, 3), (argv, first)
            assert "Traceback" not in first[1] + first[2]
            if has_key_flaw(data):
                assert first[0] == 3, (argv, first)
            assert run(argv) == first


@settings(max_examples=60, deadline=None)
@given(rotated_templates())
def test_rotated_valid_files_exit_zero_and_repeat_exactly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.tri")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for verb in (["validate-tri"], ["limit-arcs"], ["filtration", "--steps", "3"]):
            argv = [verb[0], "--tri", path, *verb[1:]]
            first = run(argv)
            assert first[0] == 0, (argv, first)
            assert run(argv) == first
