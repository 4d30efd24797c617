"""Every demo runs to completion as a plain script, warning-free, and leaves no files behind."""

import os
import subprocess
import sys

import pytest

from conftest import REPO

DEMOS = sorted((REPO / "demos").glob("*.py"))
# the warning filters pyproject.toml gives pytest, so a numpy warning in a demo fails it too
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert list(tmp_path.iterdir()) == []
