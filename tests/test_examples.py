"""Integration tests: every example script runs to completion.

Examples are the suite's user-facing contract; each asserts its own
domain-level success criteria internally, so a clean exit is a meaningful
end-to-end check of the public API.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "cp_decomposition.py",
    "tensor_power_method.py",
    "tucker_ttm_chain.py",
    "synthetic_datasets.py",
    "roofline_analysis.py",
    "streaming.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    path = os.path.join(EXAMPLES_DIR, script)
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert proc.returncode == 0, (
        f"{script} failed\nstdout:\n{proc.stdout[-2000:]}\n"
        f"stderr:\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script} produced no output"


def test_paper_figures_quick(tmp_path):
    """The full-harness driver in quick mode (writes CSVs)."""
    path = os.path.join(EXAMPLES_DIR, "paper_figures.py")
    proc = subprocess.run(
        [sys.executable, path, "--quick", "--scale", "20000"],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "observations" in proc.stdout
