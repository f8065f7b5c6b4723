"""The CI workflow file is valid: it parses as YAML, every step of every job
runs a command or uses an action, every job has a time limit, and the
standard-library job runs the golden transcript and fails on a changed byte."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
TRANSCRIPT = (
    "PYTHONPATH=src python tests/test_golden.py"
    " && git diff --exit-code -- tests/golden/expected.json"
)


def jobs():
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]


def test_every_step_runs_a_command_or_uses_an_action():
    assert jobs()
    for job, body in jobs().items():
        assert body["steps"], job
        for i, step in enumerate(body["steps"]):
            assert "run" in step or "uses" in step, (job, i, step.get("name"))


def test_every_job_has_a_time_limit():
    # without one a stalled job waits GitHub's default of 360 minutes
    for job, body in jobs().items():
        assert 0 < body.get("timeout-minutes", 0) <= 30, job


def test_the_smoke_job_runs_the_golden_transcript():
    runs = [step.get("run", "").strip() for step in jobs()["smoke"]["steps"]]
    assert TRANSCRIPT in runs
