"""The README's code runs: each fenced Python block in a fresh interpreter,
and each `curv4 verify --example` line of its command-line block with the
exit code written beside it (0 unless it says 'exits N')."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

from curv4.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
VERIFY_LINES = re.findall(r"^curv4 verify +(--example \S+)[ \t]*(?:#(.*))?$", README, flags=re.M)


def test_readme_has_the_blocks_it_documents():
    assert len(PYTHON_BLOCKS) >= 2
    assert [flags for flags, _ in VERIFY_LINES] == [
        "--example s2xs2:1,2",
        "--example bump:0.1",
    ]


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index):
    # conftest puts src/ on PYTHONPATH for fresh interpreters
    proc = subprocess.run(
        [sys.executable, "-c", PYTHON_BLOCKS[index]], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flags, comment", VERIFY_LINES)
def test_readme_verify_exit_codes(flags, comment, capsys):
    expected = re.search(r"exits (\d)", comment)
    code = main(["verify", *flags.split(), "--samples", "2"])
    capsys.readouterr()
    assert code == (int(expected.group(1)) if expected else 0)
