"""Every demo runs to the end, quietly: each is a script in demos/, run in
its own interpreter with numpy's floating-point warnings as errors."""

import os
import pathlib
import subprocess
import sys

import pytest

import omegalab

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(omegalab.__file__)),
        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
