"""Repository hygiene: no tracked file is one `.gitignore` excludes."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a checkout",
)
def test_no_ignored_file_is_tracked():
    proc = subprocess.run(
        ["git", "ls-files", "-i", "-c", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == ""
