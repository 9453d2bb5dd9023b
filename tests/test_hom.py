"""The overlap scan against a per-point dense reference.

``reference_scan`` models the photons' wavepackets as separate paths: the
first photon enters on ``a0``, the second on ``b0`` with amplitude sqrt(v)
and on ``b1`` with sqrt(1-v), and one splitter acts on each wavepacket
pair.  The coincidence probability sums every output with one photon on
path a and one on path b, whatever their wavepackets, from the dense
first-quantized evolution of ``tests/dense_reference.py``.  ``hom_scan``
must agree with it, and with the closed form, to 1e-12 while building one
splitter per scan.
"""

import math

import numpy as np
import pytest

import lopcsim.gates
from lopcsim import ModeRegistry, hom_scan, make_photon_state
from lopcsim.elements import ppbs

from . import dense_reference


def reference_scan(t_v, overlaps):
    registry = ModeRegistry(("a0", "b0", "a1", "b1"))
    per_wavepacket = [ppbs(f"a{w}", f"b{w}", f"a{w}", f"b{w}", t_v) for w in (0, 1)]
    u = dense_reference.transfer(registry, per_wavepacket)
    a_modes, b_modes = (
        [registry.index((f"{p}{w}", "V")) for w in (0, 1)] for p in "ab"
    )
    rows = []
    for v in overlaps:
        photons = [
            [(("a0", "V"), 1.0 + 0j)],
            [
                (("b0", "V"), complex(math.sqrt(v))),
                (("b1", "V"), complex(math.sqrt(1.0 - v))),
            ],
        ]
        t = dense_reference.evolve(dense_reference.tensor(make_photon_state(registry, photons)), u)
        probability = sum(
            abs(dense_reference.amplitude(t, [i, j])) ** 2 for i in a_modes for j in b_modes
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
        rows = hom_scan(t_v, overlaps)
        assert [v for v, _ in rows] == overlaps
        assert all(type(v) is float and type(p) is float for v, p in rows)
        for (v, p), (_, expected) in zip(rows, reference_scan(t_v, overlaps)):
            assert abs(p - expected) <= 1e-12
            assert abs(p - closed_form(t_v, v)) <= 1e-12


@pytest.fixture
def splitters(monkeypatch):
    """Names of the splitters ``hom_scan`` builds."""
    calls = []
    build = lopcsim.gates.ppbs

    def counting(*args, **kwargs):
        element = build(*args, **kwargs)
        calls.append(element.name)
        return element

    monkeypatch.setattr(lopcsim.gates, "ppbs", counting)
    return calls


@pytest.mark.parametrize("points", [3, 1001])
def test_scan_builds_one_splitter_whatever_its_length(splitters, points):
    hom_scan(1 / math.sqrt(3), np.linspace(0.0, 1.0, points))
    assert len(splitters) == 1


def test_empty_grid_gives_no_rows():
    assert hom_scan(0.5, []) == []


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
