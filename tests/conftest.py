"""Shared fixtures: charts and frames are expensive, so build once per session."""
import os
from pathlib import Path

import numpy as np
import pytest

import curv4
from curv4.frames import extract_frame

# the CLI tests start fresh interpreters: they import the package from the
# same src/ that pyproject's `pythonpath` puts on this process's path
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def s4_chart():
    return curv4.build_example("s4")


@pytest.fixture(scope="session")
def s2xs2_chart():
    return curv4.build_example("s2xs2:1,2")


@pytest.fixture(scope="session")
def rxs3_chart():
    return curv4.build_example("rxs3:1")


@pytest.fixture(scope="session")
def bump_chart():
    return curv4.build_example("bump:0.1")


@pytest.fixture(scope="session")
def kpc_profile():
    return curv4.solve_kpc_profile(1.0, 1.2, 0.5)


@pytest.fixture(scope="session")
def kpc_chart(kpc_profile):
    return curv4.make_kpc_warped(kpc_profile)


@pytest.fixture(scope="session")
def s2xs2_frames(s2xs2_chart):
    pts = curv4.sample_points(s2xs2_chart, count=4, seed=0)
    return [extract_frame(s2xs2_chart, x) for x in pts]


@pytest.fixture(scope="session")
def kpc_frames(kpc_chart):
    pts = curv4.sample_points(kpc_chart, count=4, seed=0)
    return [extract_frame(kpc_chart, x) for x in pts]


@pytest.fixture(scope="session")
def randflat_charts():
    return [curv4.make_random_perturbed_flat(seed) for seed in range(5)]


def ric_eigenvalues(entry):
    """Eigenvalues of Ric as an endomorphism (g^-1 Ric), ascending."""
    vals = np.linalg.eigvals(entry.g_inv @ entry.ric)
    return np.sort(vals.real)
