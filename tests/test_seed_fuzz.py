"""Fuzzed `.seed` and `.map` files through the CLI verbs `enumerate`,
`mutate`, `components`, `coproduct`, `similar`, `check-morphism`,
`image-seed` and `check-ideal`: every call exits 0, 1, 2 or 3, never with a
traceback, a file that gives one key twice or has a key its loader does not
read exits 3, and a rerun in the same process prints the same bytes (so
nothing one run leaves on its seeds, such as the exchange table, leaks into
the next)."""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterlab.cli import main  # noqa: E402
from clusterlab.seeds import fresh_label  # noqa: E402

LABELS = ["x", "y", "z", "w"]
MADE = ["x'1", "y'1", "x'2", "x'1'1"]
# values of the wrong type or form, which must exit 3
JUNK = [None, 0.5, 1, True, [], ["x"], {"id": "x"}, "", "x,y"]
TEXTS = ["x", "y", "z^-1", "2", "1", "x*y", "x + y", "x^-1*y + x^-1", "-x", "0", "3*w^2 + 1"]
BAD_TEXTS = ["x^", "1/0", "x**2", "(x)", "x +", "x^-", "*y"]


SEED_KEYS = {"variables", "matrix", "values"}
VARIABLE_KEYS = {"id", "exchangeable"}
MAP_KEYS = {"assignment", "extra"}


def misspelt(key: str) -> str:
    """The key with its second letter left out, as a typing slip."""
    return key[:1] + key[2:]


def declared(data) -> list:
    """The string ids a seed file declares, however malformed it is."""
    variables = data.get("variables") if isinstance(data, dict) else None
    if not isinstance(variables, list):
        return []
    return [r["id"] for r in variables if isinstance(r, dict) and isinstance(r.get("id"), str)]


SEED_FLAWS = [
    "junk file", "junk variables", "junk id", "duplicate id", "junk flag", "missing key",
    "one-sided entry", "sign violation", "repeated entry", "undeclared entry", "junk entry",
    "diagonal entry", "bad text", "partial values", "shared value", "repeated value",
    "misspelt key", "misspelt variable key",
]


@st.composite
def seed_files(draw, names=LABELS):
    """A seed file of rank 0-4 on the given names with a skew-symmetrizable
    matrix of small bonds, mostly exchangeable variables, Laurent values now
    and then, and in a third of the files one flaw from SEED_FLAWS."""
    labels = draw(st.lists(st.sampled_from(names), max_size=4, unique=True))
    variables = []
    for label in labels:
        record = {"id": label}
        if draw(st.integers(0, 4)):
            record["exchangeable"] = draw(st.integers(0, 3)) > 0
        variables.append(record)
    # b_vw = s d_w and b_wv = -s d_v, so d symmetrizes the matrix
    d = {label: draw(st.sampled_from([1, 1, 1, 2])) for label in labels}
    matrix = []
    for i, v in enumerate(labels):
        for w in labels[i + 1:]:
            sign = draw(st.sampled_from((1, -1, 0)))
            if sign:
                matrix += [[v, w, sign * d[w]], [w, v, -sign * d[v]]]
    data = {"variables": variables, "matrix": matrix}
    if draw(st.integers(0, 3)) == 0:
        data["values"] = [[l, t] for l, t in zip(labels, draw(st.permutations(TEXTS)))]
    flaw = draw(st.sampled_from(SEED_FLAWS + [None] * 2 * len(SEED_FLAWS)))
    name = draw(st.sampled_from(names + MADE))
    if flaw == "junk file":
        return draw(st.sampled_from(JUNK))
    if flaw == "junk variables":
        data["variables"] = draw(st.sampled_from(JUNK))
    elif flaw == "misspelt key":
        # mostly a key whose absence the loader would read as a default
        key = draw(st.sampled_from(sorted(data) + ["matrix"] * 2))
        data[misspelt(key)] = data.pop(key)
    elif variables and flaw == "misspelt variable key":
        record = draw(st.sampled_from(variables))
        key = "exchangeable" if "exchangeable" in record and draw(st.integers(0, 3)) else "id"
        record[misspelt(key)] = record.pop(key)
    elif flaw == "missing key":
        del data[draw(st.sampled_from(sorted(data)))]
    elif flaw == "undeclared entry":
        matrix.append([name, draw(st.sampled_from(labels or names)), 1])
    elif flaw == "bad text":
        data["values"] = [[l, draw(st.sampled_from(BAD_TEXTS))] for l in labels]
    elif flaw == "shared value":
        data["values"] = [[l, "x"] for l in labels]
    elif variables and flaw == "repeated value":
        values = data.setdefault("values", [[l, t] for l, t in zip(labels, TEXTS)])
        values.append([draw(st.sampled_from(labels)), draw(st.sampled_from(TEXTS))])
    elif variables and flaw in ("junk id", "duplicate id", "junk flag", "partial values"):
        k = draw(st.integers(0, len(variables) - 1))
        if flaw == "junk id":
            variables[k]["id"] = draw(st.sampled_from(JUNK))
        elif flaw == "duplicate id":
            variables.append(dict(variables[k]))
        elif flaw == "junk flag":
            variables[k]["exchangeable"] = draw(st.sampled_from(JUNK))
        else:
            data["values"] = [[l, t] for l, t in zip(labels, TEXTS) if l != labels[k]]
    elif variables and flaw == "diagonal entry":
        matrix.append([labels[0], labels[0], 1])
    elif matrix:
        k = draw(st.integers(0, len(matrix) - 1))
        if flaw == "one-sided entry":
            del matrix[k]
        elif flaw == "sign violation":
            matrix[k][2] = -matrix[k][2]
        elif flaw == "repeated entry":
            matrix.append(list(matrix[k]))
        elif flaw == "junk entry":
            matrix[k] = draw(st.sampled_from([matrix[k][:2] + [draw(st.sampled_from(JUNK))], matrix[k][:2]]))
    return data


MAP_FLAWS = [
    "junk file", "junk assignment", "junk extra", "junk generator", "junk extra image",
    "missing", "undeclared", "junk image", "repeated source", "repeated generator",
    "misspelt key",
]


@st.composite
def map_files(draw, source, target):
    """A map from the labels of one seed file to those of the other, or to
    integers; with an `extra` entry now and then, and in a third of the
    files one flaw from MAP_FLAWS."""
    src, dst = declared(source), declared(target)
    images = [-1, 0, 1, 2] + 3 * dst if dst else [0, 1]
    assignment = [[label, draw(st.sampled_from(images))] for label in src]
    data = {"assignment": assignment}
    extra = [draw(st.sampled_from(TEXTS + BAD_TEXTS)), draw(st.sampled_from(dst or LABELS))]
    if draw(st.integers(0, 4)) == 0:
        data["extra"] = [extra]
    flaw = draw(st.sampled_from(MAP_FLAWS + [None] * 2 * len(MAP_FLAWS)))
    if flaw == "junk file":
        return draw(st.sampled_from(JUNK))
    if flaw in ("junk assignment", "junk extra"):
        data["assignment" if flaw == "junk assignment" else "extra"] = draw(st.sampled_from(JUNK))
    elif flaw in ("junk generator", "junk extra image"):
        extra[flaw == "junk extra image"] = draw(st.sampled_from(JUNK))
        data["extra"] = [extra]
    elif flaw == "repeated generator":
        data["extra"] = [extra, [extra[0], draw(st.sampled_from(images))]]
    elif flaw == "misspelt key":
        data.setdefault("extra", [extra])
        key = draw(st.sampled_from(["assignment", "extra", "extra"]))
        data[misspelt(key)] = data.pop(key)
    elif assignment and flaw == "missing":
        del assignment[draw(st.integers(0, len(assignment) - 1))]
    elif flaw == "undeclared":
        assignment.append([draw(st.sampled_from(MADE)), draw(st.sampled_from(LABELS + MADE))])
    elif assignment and flaw == "junk image":
        assignment[draw(st.integers(0, len(assignment) - 1))][1] = draw(st.sampled_from(JUNK))
    elif assignment and flaw == "repeated source":
        assignment.append([draw(st.sampled_from(src)), draw(st.sampled_from(images))])
    return data


def has_unknown_key(data, keys) -> bool:
    """Whether a file, or a variable record in it, has a key its loader
    does not read; `keys` are those of the file's top level."""
    if not isinstance(data, dict):
        return False
    records = data.get("variables") if "variables" in keys else None
    records = records if isinstance(records, list) else []
    return not set(data) <= keys or any(
        isinstance(r, dict) and not set(r) <= VARIABLE_KEYS for r in records
    )


def gives_a_key_twice(data) -> bool:
    """Whether a seed or map file names one id in 'values', one source in
    'assignment' or one text in 'extra' twice."""
    if not isinstance(data, dict):
        return False
    for field in ("values", "assignment", "extra"):
        entries = data.get(field)
        if isinstance(entries, list):
            keys = [e[0] for e in entries if isinstance(e, list) and e and isinstance(e[0], str)]
            if len(keys) != len(set(keys)):
                return True
    return False


@st.composite
def walks(draw, source):
    """Mostly current labels: after x the walk may go on with x'1. Now and
    then a stale, unknown or empty name or a coefficient."""
    labels = declared(source)
    records = source["variables"] if labels else []
    exchangeable = [
        r["id"] for r in records
        if isinstance(r, dict) and isinstance(r.get("id"), str) and r.get("exchangeable") is True
    ]
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        if not exchangeable or draw(st.integers(0, 5)) == 0:
            steps.append(draw(st.sampled_from(["", "q", "x'2"] + labels + steps)))
            continue
        x = draw(st.sampled_from(exchangeable))
        new = fresh_label(x, labels)
        labels[labels.index(x)] = exchangeable[exchangeable.index(x)] = new
        steps.append(x)
    return steps


@st.composite
def calls(draw):
    """A CLI call and the files it reads."""
    verb = draw(st.sampled_from([
        "enumerate", "mutate", "components", "coproduct", "similar",
        "check-morphism", "image-seed", "check-ideal",
    ]))
    source = draw(seed_files())
    budget = ["--nodes", str(draw(st.sampled_from([0, 1, 5, 300])))]
    if verb == "enumerate":
        return ["enumerate", "--seed", "{src}", "--depth", str(draw(st.integers(0, 3))), *budget], {
            "src": source
        }
    if verb == "mutate":
        return ["mutate", "--seed", "{src}", "--sequence", ",".join(draw(walks(source)))], {"src": source}
    if verb == "components":
        return ["components", "--seed", "{src}"], {"src": source}
    target = source if draw(st.booleans()) else draw(seed_files())
    if verb == "coproduct":
        # summands on other names now and then, so that they can be disjoint
        if draw(st.booleans()):
            target = draw(seed_files(["p", "q", "r", "s"]))
        return ["coproduct", "--seeds", "{src}", "{dst}"], {"src": source, "dst": target}
    if verb == "similar":
        return ["similar", "--src", "{src}", "--dst", "{dst}"], {"src": source, "dst": target}
    files = {"src": source, "dst": target, "map": draw(map_files(source, target))}
    argv = [verb, "--src", "{src}", "--dst", "{dst}", "--map", "{map}"]
    if verb == "image-seed":
        return argv, files
    return [*argv, "--depth", str(draw(st.integers(0, 2))), *budget], files


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(calls())
def test_seed_and_map_files_exit_cleanly_and_repeat_exactly(call):
    template, files = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        argv = [arg.format(**paths) for arg in template]
        first = run(argv)
        assert first[0] in (0, 1, 2, 3), (argv, files, first)
        assert "Traceback" not in first[1] + first[2]
        if any(map(gives_a_key_twice, files.values())):
            assert first[0] == 3, (argv, files, first)
        if any(has_unknown_key(data, MAP_KEYS if name == "map" else SEED_KEYS) for name, data in files.items()):
            assert first[0] == 3, (argv, files, first)
        assert run(argv) == first
