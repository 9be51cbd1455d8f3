"""The laws runner `deltalens laws` runs end to end in a child process
that imports the same package as this one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltalens


def _run(*argv: str) -> subprocess.CompletedProcess:
    path = [str(Path(deltalens.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


@pytest.mark.parametrize("families, bad", [("fixtures,nope", "'nope'"), ("fixtures,", "''")])
def test_run_laws_script_rejects_an_unknown_family_before_running_any(families, bad):
    # The exit code is the one the process returns, not main()'s value.
    proc = _run("-m", "deltalens.cli", "laws", "--families", families)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: unknown law family: {bad}\n"

