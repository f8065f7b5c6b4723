"""Reports do not depend on string hashing: one fixed list of CLI calls,
each run in a fresh interpreter under PYTHONHASHSEED 0..3, prints the same
bytes every time.

The list starts with a seed file whose `a` breaks the sign condition with
four neighbours at once, so the witness that the `Seed` constructor
names depends on the order in which it walks `a`'s neighbours. Then comes
one small job for each verb that loads a map, reads an oracle or reads a
finite triangulation."""

import json
import os
import subprocess
import sys

import clusterlab

SIGN_VIOLATION = {
    "variables": [{"id": v, "exchangeable": True} for v in "auwyz"],
    "matrix": [e for v in "uwyz" for e in (["a", v, 1], [v, "a", 1])],
}
A3 = {
    "variables": [{"id": v, "exchangeable": True} for v in ("x1", "x2", "x3")],
    "matrix": [["x1", "x2", 1], ["x2", "x1", -1], ["x2", "x3", 1], ["x3", "x2", -1]],
}
IDENTITY = {"assignment": [[v, v] for v in ("x1", "x2", "x3")]}
SPECIALIZED = {"assignment": [["x1", "x1"], ["x2", "x2"], ["x3", 1]]}
PENTAGON = {
    "points": ["0/1", "1/5", "2/5", "3/5", "4/5"],
    "arcs": [["0/1", "1/5"], ["1/5", "2/5"], ["2/5", "3/5"], ["3/5", "4/5"],
             ["0/1", "4/5"], ["0/1", "2/5"], ["0/1", "3/5"]],
}

CALLS = [
    ["enumerate", "--seed", "{bad}"],
    ["components", "--seed", "{bad}"],
    ["check-morphism", "--src", "{a3}", "--dst", "{a3}", "--map", "{id}", "--depth", "2"],
    ["image-seed", "--src", "{a3}", "--dst", "{a3}", "--map", "{spec}"],
    ["check-ideal", "--src", "{a3}", "--dst", "{a3}", "--map", "{id}", "--depth", "2"],
    ["stable-mutate", "--oracle", "path-quiver", "--sequence", "x0,x1", "--target", "x0"],
    ["positivity", "--oracle", "path-quiver", "--sequence", "x0,x1", "--target", "x0"],
    ["flip", "--tri", "{tri}", "--arc", "0/1~2/5"],
    ["tri-seed", "--tri", "{tri}"],
]

TRANSCRIPT = """
import contextlib, io, json, sys
from clusterlab.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    sys.stdout.write(f"{argv[0]} -> {code}\\n{out.getvalue()}")
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    paths = {}
    for name, data in (
        ("bad", SIGN_VIOLATION), ("a3", A3), ("id", IDENTITY), ("spec", SPECIALIZED), ("tri", PENTAGON)
    ):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    calls = json.dumps([[arg.format(**paths) for arg in argv] for argv in CALLS])
    src = os.path.dirname(os.path.dirname(os.path.abspath(clusterlab.__file__)))
    transcripts = []
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", TRANSCRIPT, calls],
            env=env, capture_output=True, text=True, check=True,
        )
        transcripts.append(done.stdout)
    assert transcripts[1:] == transcripts[:1] * 3
    # the least violating neighbour is the witness; every other job succeeds
    assert transcripts[0].count("sign violation at ('a', 'u')") == 2
    assert transcripts[0].count(" -> 0\n") == len(CALLS) - 2
