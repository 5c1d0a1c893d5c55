"""Smoke tests: four demos run to the end and print their closing results.

demo_dependence_ratios.py is left out: it simulates whole tail-ratio
grids under AR(1) and ARCH(1) and takes about 13 s on 2 cores, against
about 3 s for the other four together. The CI workflow runs it in one
matrix leg instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocknorm

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(Path(blocknorm.__file__).resolve().parent.parent)


CLOSING_LINES = {
    "demo_block_statistics.py": "Equal-block identity: i_n(x, m) == w_n(x, m, m) exactly: True",
    "demo_null_laws.py": " TnStar with {'scheme': 'batch', 'm': 50}: KS distance to t19 = 0.0041",
    "demo_panel_inference.py": "test of the true mean vector:         reject = False",
    "demo_reference_tails.py": "  normal : 1.9600",
}


@pytest.mark.parametrize("name", sorted(CLOSING_LINES))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert CLOSING_LINES[name] in done.stdout.splitlines()
