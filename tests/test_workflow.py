"""The CI workflow file is valid: it parses as YAML, and every step of every
job runs a command or uses an action."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_every_step_runs_a_command_or_uses_an_action():
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    assert jobs
    for job, body in jobs.items():
        assert body["steps"], job
        for i, step in enumerate(body["steps"]):
            assert "run" in step or "uses" in step, (job, i, step.get("name"))
