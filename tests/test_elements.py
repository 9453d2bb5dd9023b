import math
from dataclasses import replace

import numpy as np
import pytest

from lopcsim import hwp, jones, pbs, phase_flip, pol_filter, ppbs
from lopcsim.elements import KINDS, ElementSpec

SQ2 = math.sqrt(2.0)
T = 1.0 / math.sqrt(3.0)
#: The layouts' lower-target-arm polarization map, |V> -> (1/2)|H> + (sqrt(3)/2)|V>.
TARGET_SPLIT_MATRIX = np.array(
    [[-math.sqrt(3.0) / 2.0, 0.5], [0.5, math.sqrt(3.0) / 2.0]], dtype=complex
)


def allclose_unitary(element):
    """Whether M†M is the identity within 1e-12 entry by entry."""
    m = element.matrix
    return bool(np.allclose(m.conj().T @ m, np.eye(len(m)), atol=1e-12, rtol=0.0))


def test_hwp_225_is_hadamard():
    m = hwp("t", 22.5).matrix
    assert np.allclose(m, np.array([[1, 1], [1, -1]]) / SQ2, atol=1e-12, rtol=0)


def test_hwp_45_is_swap():
    m = hwp("t", 45.0).matrix
    assert np.allclose(m, [[0, 1], [1, 0]], atol=1e-12, rtol=0)


def test_hwp_0_is_vertical_sign():
    m = hwp("t", 0.0).matrix
    assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-12, rtol=0)


@pytest.mark.parametrize("angle", [-9.2, 0.0, 15.0, 22.5, 45.0, 75.0, 123.4])
def test_hwp_is_hermitian_involution_with_det_minus_one(angle):
    el = hwp("t", angle)
    m = el.matrix
    assert allclose_unitary(el)
    assert np.allclose(m, m.conj().T, atol=1e-12, rtol=0)
    assert np.allclose(m @ m, np.eye(2), atol=1e-12, rtol=0)
    assert abs(np.linalg.det(m) + 1.0) < 1e-12


def test_hadamard_squared_is_identity():
    m = hwp("t", 22.5).matrix
    assert np.allclose(m @ m, np.eye(2), atol=1e-12, rtol=0)


def test_pbs_routing_and_unitarity():
    el = pbs("a", "b", "t", "r")
    m = el.matrix
    assert allclose_unitary(el)
    assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-12, rtol=0)
    # H transmits straight through, V swaps ports, all with amplitude +1
    assert m[0, 0] == 1 and m[1, 1] == 1
    assert m[2, 3] == 1 and m[3, 2] == 1
    assert el.channels_in == (("a", "H"), ("b", "H"), ("a", "V"), ("b", "V"))
    assert el.channels_out == (("t", "H"), ("r", "H"), ("t", "V"), ("r", "V"))


def test_pbs_rejects_duplicate_ports():
    with pytest.raises(ValueError):
        pbs("a", "a", "t", "r")
    with pytest.raises(ValueError):
        pbs("a", "b", "t", "t")


def test_ppbs_blocks():
    el = ppbs("a", "b", "a", "b", T)
    m = el.matrix
    assert allclose_unitary(el)
    assert np.allclose(m[:2, :2], np.eye(2), atol=1e-12, rtol=0)
    r = math.sqrt(1 - T * T)
    assert np.allclose(m[2:, 2:], [[T, -r], [r, T]], atol=1e-12, rtol=0)
    # coincidence amplitude is the permanent of the V block
    perm = m[2, 2] * m[3, 3] + m[2, 3] * m[3, 2]
    assert abs(perm + 1.0 / 3.0) < 1e-12


def test_ppbs_transmissivity_range():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            ppbs("a", "b", "a", "b", bad)


def test_target_split_matrix_matches_hwp75():
    assert np.allclose(TARGET_SPLIT_MATRIX, hwp("t", 75.0).matrix, atol=1e-12, rtol=0)
    el = jones("t", TARGET_SPLIT_MATRIX)
    # |V> -> (1/2)|H> + (sqrt(3)/2)|V>
    image = el.matrix @ np.array([0.0, 1.0])
    assert np.allclose(image, [0.5, math.sqrt(3) / 2], atol=1e-12, rtol=0)
    assert np.allclose(el.matrix @ el.matrix, np.eye(2), atol=1e-12, rtol=0)


def test_jones_identity_and_subunitarity():
    el = jones("t", np.eye(2))
    assert allclose_unitary(el)
    with pytest.raises(ValueError):
        jones("t", np.array([[1.0, 0.9], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        jones("t", np.eye(3))


def test_filters():
    f1 = pol_filter("t", 0.5, 0.5)
    assert np.allclose(f1.matrix, np.diag([0.5, 0.5]), atol=1e-15, rtol=0)
    assert not allclose_unitary(f1)
    f2 = pol_filter("c", T, 1.0)
    assert np.allclose(f2.matrix, np.diag([T, 1.0]), atol=1e-15, rtol=0)
    f1_opt = pol_filter("t", 1 / SQ2, 1 / SQ2)
    sv = np.linalg.svd(f1_opt.matrix, compute_uv=False)
    assert np.allclose(sorted(sv), sorted([1 / SQ2, 1 / SQ2]), atol=1e-12, rtol=0)
    assert allclose_unitary(pol_filter("t", 1.0, 1.0))
    with pytest.raises(ValueError):
        pol_filter("t", 1.5, 1.0)
    with pytest.raises(ValueError):
        pol_filter("t", 0.5, -0.1)


def test_phase_flip_involution():
    el = phase_flip("t")
    assert allclose_unitary(el)
    assert np.allclose(el.matrix, np.diag([1.0, -1.0]), atol=1e-15, rtol=0)
    assert np.allclose(el.matrix @ el.matrix, np.eye(2), atol=1e-15, rtol=0)


def test_singular_values_match_transmissivities():
    el = pol_filter("t", 0.3, 0.9)
    sv = np.linalg.svd(el.matrix, compute_uv=False)
    assert np.allclose(sorted(sv), [0.3, 0.9], atol=1e-12, rtol=0)


def _sample_spec(kind_name, name="X"):
    """A legal spec of every kind: distinct paths and 0.5 for each numeric entry."""
    kind = KINDS[kind_name]
    paths = tuple(f"p{i}" for i in range(sum(n for _, n in kind.ports)))
    params = (complex(0.5),) * sum(f.count for f in kind.fields)
    return ElementSpec(kind_name, name, paths, params)


def test_element_spec_build_round_trips_kinds():
    for kind_name in KINDS:
        spec = _sample_spec(kind_name)
        el = spec.build()
        assert el.name == spec.name
        assert {path for path, _ in el.channels_in + el.channels_out} == set(spec.paths)


@pytest.mark.parametrize("kind_name", sorted(KINDS))
def test_element_spec_build_checks_path_and_parameter_counts(kind_name):
    spec = _sample_spec(kind_name)
    bad = [
        replace(spec, paths=spec.paths + ("extra",)),
        replace(spec, paths=spec.paths[:-1]),
        replace(spec, params=spec.params + (complex(0.5),)),
    ]
    if spec.params:
        bad.append(replace(spec, params=spec.params[:-1]))
    for wrong in bad:
        with pytest.raises(ValueError, match=f"{kind_name} takes"):
            wrong.build()
    with pytest.raises(ValueError, match="unknown element kind"):
        replace(spec, kind="mirror").build()


def test_element_spec_rejects_imaginary_part_in_real_fields():
    spec = ElementSpec("ppbs", "P", ("a", "b", "a", "b"), (complex(0.5, 0.3),))
    with pytest.raises(ValueError, match=r"ppbs tv must be real, got \(0\.5\+0\.3j\)"):
        spec.build()
    for kind_name, kind in KINDS.items():
        spec = _sample_spec(kind_name)
        for at, f in enumerate(f for f in kind.fields for _ in range(f.count)):
            params = spec.params[:at] + (complex(0.5, 1e-9),) + spec.params[at + 1:]
            wrong = replace(spec, params=params)
            if f.is_complex:
                wrong.build()
            else:
                with pytest.raises(ValueError, match=f"{kind_name} {f.key} must be real"):
                    wrong.build()


def test_element_is_built_once_per_spec():
    spec = _sample_spec("ppbs")
    assert spec.element is spec.element
    assert np.array_equal(spec.element.matrix, spec.build().matrix)
    bad = replace(spec, params=(complex(1.5),))
    for _ in range(2):
        with pytest.raises(ValueError, match="transmissivity"):
            bad.element


def test_element_spec_builds_same_matrices_as_builders():
    split = tuple(map(complex, TARGET_SPLIT_MATRIX.ravel()))
    pairs = [
        (ElementSpec("pbs", "P", ("a", "b", "t", "r")), pbs("a", "b", "t", "r")),
        (ElementSpec("ppbs", "Q", ("a", "b", "a", "c"), (T,)), ppbs("a", "b", "a", "c", T)),
        (ElementSpec("hwp", "W", ("a",), (22.5,)), hwp("a", 22.5)),
        (ElementSpec("jones", "J", ("a",), split), jones("a", TARGET_SPLIT_MATRIX)),
        (ElementSpec("filter", "F", ("a",), (0.5, 0.25)), pol_filter("a", 0.5, 0.25)),
        (ElementSpec("phaseflip", "Z", ("a",)), phase_flip("a")),
    ]
    for spec, element in pairs:
        built = spec.build()
        assert built.channels_in == element.channels_in
        assert built.channels_out == element.channels_out
        assert np.array_equal(built.matrix, element.matrix)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_elements_reject_non_finite_parameters(bad):
    for make in (
        lambda: hwp("t", bad),
        lambda: jones("t", np.array([[bad, 0.0], [0.0, 0.5]])),
        lambda: jones("t", np.array([[0.5, 0.0], [0.0, complex(0.0, bad)]])),
        lambda: ppbs("a", "b", "a", "b", bad),
        lambda: pol_filter("t", bad, 0.5),
        lambda: pol_filter("t", 0.5, bad),
    ):
        with pytest.raises(ValueError):
            make()
    with pytest.raises(ValueError, match="non-finite"):
        hwp("t", float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        jones("t", np.array([[0.5, bad], [0.0, 0.5]]))
