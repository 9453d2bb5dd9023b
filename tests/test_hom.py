"""The overlap scan against a per-point reference evolution.

``reference_scan`` prepares the two-photon input of every overlap point on
its own and evolves and post-selects it through the splitter.  ``hom_scan``
must agree with it, and with the closed form, to 1e-12 while evolving only
the two basis inputs.
"""

import math

import numpy as np
import pytest

import lopcsim.gates
from lopcsim import ModeLabel, ModeRegistry, apply_element, hom_scan, make_photon_state, post_select
from lopcsim.elements import ppbs


def reference_scan(t_v, overlaps):
    registry = ModeRegistry(("a", "b"), internal_count=2)
    splitter = ppbs("a", "b", "a", "b", t_v)
    rows = []
    for v in overlaps:
        photons = [
            [(ModeLabel("a", "V", 0), 1.0 + 0j)],
            [
                (ModeLabel("b", "V", 0), complex(math.sqrt(v))),
                (ModeLabel("b", "V", 1), complex(math.sqrt(1.0 - v))),
            ],
        ]
        state = make_photon_state(registry, photons)
        _, probability = post_select(apply_element(state, splitter), {"a": 1, "b": 1})
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
def evolutions(monkeypatch):
    calls = []
    apply_element = lopcsim.gates.apply_element

    def counting(state, element, *args):
        calls.append(element.name)
        return apply_element(state, element, *args)

    monkeypatch.setattr(lopcsim.gates, "apply_element", counting)
    return calls


@pytest.mark.parametrize("points", [3, 1001])
def test_scan_costs_two_evolutions_whatever_its_length(evolutions, points):
    hom_scan(1 / math.sqrt(3), np.linspace(0.0, 1.0, points))
    assert len(evolutions) == 2


def test_empty_grid_gives_no_rows():
    assert hom_scan(0.5, []) == []


@pytest.mark.parametrize("t_v", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_bad_transmissivity_is_rejected(evolutions, t_v):
    with pytest.raises(ValueError, match=r"^transmissivity must lie in \(0, 1\), got "):
        hom_scan(t_v, [0.5])
    assert evolutions == []


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("at", [0, 2])
def test_bad_overlap_anywhere_is_rejected_before_any_evolution(evolutions, bad, at):
    grid = [0.5, 0.25, 1.0]
    grid[at] = bad
    with pytest.raises(ValueError, match=rf"^overlap must lie in \[0, 1\], got {bad}$"):
        hom_scan(0.5, grid)
    assert evolutions == []
