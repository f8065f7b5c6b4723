"""The golden transcript: every case of tests/golden/cases.txt, run in both
formats in-process through `cli.main`, gives the exit code, stdout, stderr,
`--out` bytes and `--out-dir` files stored in tests/golden/expected.json.

A changed expectation is a behaviour change. To write the expectations from
the current code, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest

from clusterlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected.json"
FORMATS = ("plain", "structured")


def cases() -> list[str]:
    lines = (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line and not line.startswith("#")]


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


@pytest.mark.parametrize("fmt", FORMATS)
def test_the_transcript_is_unchanged(fmt, tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[fmt]
    got = transcript(fmt, tmp_path)
    assert list(got) == list(expected)
    assert {c: (r, expected[c]) for c, r in got.items() if r != expected[c]} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        data = {fmt: transcript(fmt, Path(scratch)) for fmt in FORMATS}
    EXPECTED.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"{EXPECTED}: {sum(map(len, data.values()))} cases")
