"""The overlap scan against a per-point dense reference.

``reference_scan`` models the photons' wavepackets as separate paths: the
input is sqrt(v)|a0 b0> + sqrt(1-v)|a0 b1>, the first photon on ``a0`` and
the second on ``b0`` or ``b1``, and one splitter acts on each wavepacket
pair.  The coincidence probability sums every output with one photon on
path a and one on path b, whatever their wavepackets, from the dense
first-quantized evolution of ``tests/dense_reference.py``.  ``hom_scan``
must agree with it, and with the closed form, to 1e-12 while building one
splitter per scan.
"""

import math

import numpy as np
import pytest

from lopcsim import hom_scan
from lopcsim.elements import KINDS

from . import dense_reference
from .test_elements import element_spec


def reference_scan(t_v, overlaps):
    paths = ("a0", "b0", "a1", "b1")
    per_wavepacket = [element_spec("ppbs", f"a{w} b{w} a{w} b{w}", t_v) for w in (0, 1)]
    u = dense_reference.transfer(paths, per_wavepacket)
    index = dense_reference.modes(paths)
    (a0, a1), (b0, b1) = ([index[f"{p}{w}", "V"] for w in (0, 1)] for p in "ab")
    size = len(index)
    rows = []
    for v in overlaps:
        ket = (math.sqrt(v) * dense_reference.tensor(size, [a0, b0])
               + math.sqrt(1.0 - v) * dense_reference.tensor(size, [a0, b1]))
        t = dense_reference.evolve(ket, u)
        probability = sum(
            abs(dense_reference.amplitude(t, [i, j])) ** 2 for i in (a0, a1) for j in (b0, b1)
        )
        rows.append((v, probability))
    return rows


def closed_form(t_v, v):
    t2, r2 = t_v * t_v, 1.0 - t_v * t_v
    return v * (t2 - r2) ** 2 + (1.0 - v) * (t2 * t2 + r2 * r2)


def test_scan_matches_per_point_reference_and_closed_form():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        t_v = float(rng.uniform(0.01, 0.99))
        overlaps = [float(v) for v in rng.uniform(0.0, 1.0, size=17)] + [0.0, 1.0]
        overlaps += overlaps[:4]  # repeated points
        rng.shuffle(overlaps)
        coincidence = hom_scan(t_v, overlaps)
        assert coincidence.dtype == np.float64 and coincidence.shape == (len(overlaps),)
        for v, p, (_, expected) in zip(overlaps, coincidence, reference_scan(t_v, overlaps)):
            assert abs(p - expected) <= 1e-12
            assert abs(p - closed_form(t_v, v)) <= 1e-12


@pytest.fixture
def splitters(monkeypatch):
    """Transmissivities of the splitter matrices ``hom_scan`` builds."""
    calls = []
    ppbs = KINDS["ppbs"]

    def counting(*values):
        calls.append(values)
        return ppbs.matrix(*values)

    monkeypatch.setitem(KINDS, "ppbs", ppbs._replace(matrix=counting))
    return calls


@pytest.mark.parametrize("points", [3, 1001])
def test_scan_builds_one_splitter_whatever_its_length(splitters, points):
    hom_scan(1 / math.sqrt(3), np.linspace(0.0, 1.0, points))
    assert len(splitters) == 1


def test_empty_grid_gives_no_rows():
    assert hom_scan(0.5, []).shape == (0,)


@pytest.mark.parametrize("t_v", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_bad_transmissivity_is_rejected(splitters, t_v):
    with pytest.raises(ValueError, match=r"^transmissivity must lie in \(0, 1\), got "):
        hom_scan(t_v, [0.5])
    assert splitters == []


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("at", [0, 2])
def test_bad_overlap_anywhere_is_rejected_before_any_evolution(splitters, bad, at):
    grid = [0.5, 0.25, 1.0]
    grid[at] = bad
    with pytest.raises(ValueError, match=rf"^overlap must lie in \[0, 1\], got {bad}$"):
        hom_scan(0.5, grid)
    assert splitters == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", [np.array([0.5, 0.25 + 0.5j]), [0.5, 0.25 + 0.5j]])
def test_a_complex_overlap_is_refused_not_truncated(splitters, grid):
    with pytest.raises(ValueError, match=r"^overlap must be real, got \(0\.25\+0\.5j\)$"):
        hom_scan(0.5, grid)
    assert splitters == []


@pytest.mark.filterwarnings("error")
def test_a_complex_overlap_with_no_imaginary_part_is_its_real_part():
    grid = [0.0, 0.25, 1.0]
    np.testing.assert_array_equal(hom_scan(0.5, np.array(grid, dtype=complex)), hom_scan(0.5, grid))
