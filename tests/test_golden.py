"""The golden transcript: every case of tests/golden/cases.txt, run in both
formats in-process through `cli.main`, gives the exit code, stdout, stderr,
`--out` bytes and `--out-dir` files stored in tests/golden/expected.json.

A changed expectation is a behaviour change. The module imports with the
standard library alone, so it also runs as a script on an interpreter with
nothing installed: from the repository root,

    PYTHONPATH=src python tests/test_golden.py

writes the expectations from the current code, and
`git diff --exit-code -- tests/golden/expected.json` then shows any changed
byte as one diff.
"""

import argparse
import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from clusterlab.cli import build_parser, main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
EXPECTED = GOLDEN / "expected.json"
FORMATS = ("plain", "structured")
FAN_TRI = "filtration --tri fan.tri --steps 5 --out-dir fan-tri"
FAN_ORACLE = "filtration --oracle fan --steps 5 --out-dir fan-oracle"


def cases() -> list[str]:
    lines = (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def run_case(case: str, fmt: str, scratch: Path) -> dict:
    """Exit code, stdout, stderr, the `--out` file's text and the text of
    each file in the `--out-dir` directory, by name, of one case."""
    words = shlex.split(case)
    argv, out, out_dir = ["--format", fmt], None, None
    for prev, word in zip([None, *words], words):
        if prev == "--out":
            out = scratch / word
            out.unlink(missing_ok=True)
            word = str(out)
        elif prev == "--out-dir":
            out_dir = scratch / word
            shutil.rmtree(out_dir, ignore_errors=True)
            word = str(out_dir)
        elif (GOLDEN / word).is_file():
            word = str(GOLDEN / word)
        elif word.startswith("wrap:") and (GOLDEN / word[5:]).is_file():
            word = "wrap:" + str(GOLDEN / word[5:])
        argv.append(word)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    result = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if out is not None:
        result["out"] = out.read_text(encoding="utf-8") if out.exists() else None
    if out_dir is not None:
        files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
        result["out_dir"] = {f.name: f.read_text(encoding="utf-8") for f in files}
    return result


def transcript(fmt: str, scratch: Path) -> dict:
    return {case: run_case(case, fmt, scratch) for case in cases()}


def pytest_generate_tests(metafunc):
    """One transcript test per format, parametrized without importing pytest."""
    if "fmt" in metafunc.fixturenames:
        metafunc.parametrize("fmt", FORMATS)


def test_the_transcript_is_unchanged(fmt, tmp_path):
    want = expected()[fmt]
    got = transcript(fmt, tmp_path)
    assert list(got) == list(want)
    assert {c: (r, want[c]) for c, r in got.items() if r != want[c]} == {}


def test_every_verb_and_exit_code_has_a_case():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = set(sub.choices) - {shlex.split(case)[0] for case in cases()}
    assert not missing, f"verbs with no case: {sorted(missing)}"
    codes = {r["exit"] for runs in expected().values() for r in runs.values()}
    assert {0, 1, 2, 3} <= codes, f"exit codes with no case: {sorted({0, 1, 2, 3} - codes)}"


def test_the_fan_file_and_the_fan_oracle_write_one_tower():
    for runs in expected().values():
        assert runs[FAN_TRI]["out_dir"] == runs[FAN_ORACLE]["out_dir"] != {}


def test_the_runner_imports_without_pytest():
    """The CPython 3.10 job installs nothing: the module must import and run
    cases with pytest unimportable."""
    few = [
        "mutate --seed a3.seed --at x2 --out mutated.seed",
        "filtration --oracle split-fountain --steps 6 --out-dir split-stages",
        "enumerate --seed a3.seed --depth -1",
    ]
    script = (
        "import json, sys, tempfile\n"
        "from pathlib import Path\n"
        "sys.modules['pytest'] = None\n"
        "import test_golden as g\n"
        "few, want = json.loads(sys.argv[1]), g.expected()\n"
        "with tempfile.TemporaryDirectory() as scratch:\n"
        "    bad = [(f, c) for f in g.FORMATS for c in few\n"
        "           if g.run_case(c, f, Path(scratch)) != want[f][c]]\n"
        "sys.exit(str(bad) if bad else 0)\n"
    )
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(few)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        data = {fmt: transcript(fmt, Path(scratch)) for fmt in FORMATS}
    EXPECTED.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"{EXPECTED}: {len(cases())} cases in {len(FORMATS)} formats")
