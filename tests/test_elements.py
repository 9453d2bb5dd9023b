import decimal
import fractions
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lopcsim.elements import KINDS, ElementSpec

SQ2 = math.sqrt(2.0)
T = 1.0 / math.sqrt(3.0)
#: The layouts' lower-target-arm polarization map, |V> -> (1/2)|H> + (sqrt(3)/2)|V>.
TARGET_SPLIT_MATRIX = np.array(
    [[-math.sqrt(3.0) / 2.0, 0.5], [0.5, math.sqrt(3.0) / 2.0]], dtype=complex
)


def element_spec(kind, paths, *params):
    """The spec of ``kind`` on the space-separated ``paths``, named after its kind."""
    return ElementSpec(kind, kind.upper(), tuple(paths.split()), tuple(map(complex, params)))


def element(kind, paths, *params):
    """The built matrix of ``element_spec(kind, paths, *params)``."""
    return element_spec(kind, paths, *params).build()


def allclose_unitary(m):
    """Whether M†M is the identity within 1e-12 entry by entry."""
    return bool(np.allclose(m.conj().T @ m, np.eye(len(m)), atol=1e-12, rtol=0.0))


def test_hwp_225_is_hadamard():
    m = element("hwp", "t", 22.5)
    assert np.allclose(m, np.array([[1, 1], [1, -1]]) / SQ2, atol=1e-12, rtol=0)


def test_hwp_45_is_swap():
    m = element("hwp", "t", 45.0)
    assert np.allclose(m, [[0, 1], [1, 0]], atol=1e-12, rtol=0)


def test_hwp_0_is_vertical_sign():
    m = element("hwp", "t", 0.0)
    assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-12, rtol=0)


@pytest.mark.parametrize("angle", [-9.2, 0.0, 15.0, 22.5, 45.0, 75.0, 123.4])
def test_hwp_is_hermitian_involution_with_det_minus_one(angle):
    m = element("hwp", "t", angle)
    assert allclose_unitary(m)
    assert np.allclose(m, m.conj().T, atol=1e-12, rtol=0)
    assert np.allclose(m @ m, np.eye(2), atol=1e-12, rtol=0)
    assert abs(np.linalg.det(m) + 1.0) < 1e-12


def test_hadamard_squared_is_identity():
    m = element("hwp", "t", 22.5)
    assert np.allclose(m @ m, np.eye(2), atol=1e-12, rtol=0)


def test_pbs_routing_and_unitarity():
    m = element("pbs", "a b t r")
    assert allclose_unitary(m)
    assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-12, rtol=0)
    # H transmits straight through, V swaps ports, all with amplitude +1
    assert m[0, 0] == 1 and m[1, 1] == 1
    assert m[2, 3] == 1 and m[3, 2] == 1


def test_pbs_rejects_duplicate_ports():
    with pytest.raises(ValueError, match="^pbs input paths must differ$"):
        element("pbs", "a a t r")
    with pytest.raises(ValueError, match="^pbs output paths must differ$"):
        element("pbs", "a b t t")


def test_ppbs_blocks():
    m = element("ppbs", "a b a b", T)
    assert allclose_unitary(m)
    assert np.allclose(m[:2, :2], np.eye(2), atol=1e-12, rtol=0)
    r = math.sqrt(1 - T * T)
    assert np.allclose(m[2:, 2:], [[T, -r], [r, T]], atol=1e-12, rtol=0)
    # coincidence amplitude is the permanent of the V block
    perm = m[2, 2] * m[3, 3] + m[2, 3] * m[3, 2]
    assert abs(perm + 1.0 / 3.0) < 1e-12


def test_ppbs_transmissivity_range():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            element("ppbs", "a b a b", bad)


def test_target_split_matrix_matches_hwp75():
    assert np.allclose(TARGET_SPLIT_MATRIX, element("hwp", "t", 75.0), atol=1e-12, rtol=0)
    el = element("jones", "t", *TARGET_SPLIT_MATRIX.ravel())
    # |V> -> (1/2)|H> + (sqrt(3)/2)|V>
    image = el @ np.array([0.0, 1.0])
    assert np.allclose(image, [0.5, math.sqrt(3) / 2], atol=1e-12, rtol=0)
    assert np.allclose(el @ el, np.eye(2), atol=1e-12, rtol=0)


def test_jones_identity_and_subunitarity():
    el = element("jones", "t", 1.0, 0.0, 0.0, 1.0)
    assert allclose_unitary(el)
    with pytest.raises(ValueError, match="not subunitary"):
        element("jones", "t", 1.0, 0.9, 0.0, 1.0)
    with pytest.raises(ValueError, match="jones takes 4 parameters, got 9"):
        element("jones", "t", *np.eye(3).ravel())


def test_filters():
    f1 = element("filter", "t", 0.5, 0.5)
    assert np.allclose(f1, np.diag([0.5, 0.5]), atol=1e-15, rtol=0)
    assert not allclose_unitary(f1)
    f2 = element("filter", "c", T, 1.0)
    assert np.allclose(f2, np.diag([T, 1.0]), atol=1e-15, rtol=0)
    f1_opt = element("filter", "t", 1 / SQ2, 1 / SQ2)
    sv = np.linalg.svd(f1_opt, compute_uv=False)
    assert np.allclose(sorted(sv), sorted([1 / SQ2, 1 / SQ2]), atol=1e-12, rtol=0)
    assert allclose_unitary(element("filter", "t", 1.0, 1.0))
    with pytest.raises(ValueError):
        element("filter", "t", 1.5, 1.0)
    with pytest.raises(ValueError):
        element("filter", "t", 0.5, -0.1)


def test_phase_flip_involution():
    el = element("phaseflip", "t")
    assert allclose_unitary(el)
    assert np.allclose(el, np.diag([1.0, -1.0]), atol=1e-15, rtol=0)
    assert np.allclose(el @ el, np.eye(2), atol=1e-15, rtol=0)


def test_singular_values_match_transmissivities():
    el = element("filter", "t", 0.3, 0.9)
    sv = np.linalg.svd(el, compute_uv=False)
    assert np.allclose(sorted(sv), [0.3, 0.9], atol=1e-12, rtol=0)


def _sample_spec(kind_name, name="X"):
    """A legal spec of every kind: distinct paths and 0.5 for each numeric entry."""
    kind = KINDS[kind_name]
    paths = tuple(f"p{i}" for i in range(sum(n for _, n in kind.ports)))
    params = (complex(0.5),) * sum(f.count for f in kind.fields)
    return ElementSpec(kind_name, name, paths, params)


def test_element_spec_build_round_trips_kinds():
    # a read-only complex matrix over H and V of each path a one-path kind
    # acts on, or of a splitter's two inputs and two outputs
    for kind_name in KINDS:
        spec = _sample_spec(kind_name)
        m = spec.build()
        size = 2 if len(spec.paths) == 1 else 4
        assert m.shape == (size, size) and m.dtype == complex and not m.flags.writeable


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


@pytest.mark.parametrize("value", [np.float32(22.5), fractions.Fraction(45, 2), np.int64(22)],
                         ids=["float32", "Fraction", "int64"])
def test_numbers_outside_the_builtin_types_build(value):
    # the number check tries complex, float and int first, then numbers.Complex
    spec = ElementSpec("hwp", "H", ("t",), (value,))
    assert np.array_equal(spec.build(), KINDS["hwp"].matrix(float(value)))


@pytest.mark.parametrize("value", [decimal.Decimal("22.5"), "x"], ids=["Decimal", "str"])
def test_values_that_are_not_numbers_are_rejected_alike(value):
    spec = ElementSpec("hwp", "H", ("t",), (value,))
    with pytest.raises(ValueError, match=f"^hwp angle must be a number, got {re.escape(repr(value))}$"):
        spec.build()


def test_element_is_built_once_per_spec():
    spec = _sample_spec("ppbs")
    assert spec.element is spec.element
    assert np.array_equal(spec.element, spec.build())
    bad = replace(spec, params=(complex(1.5),))
    for _ in range(2):
        with pytest.raises(ValueError, match="transmissivity"):
            bad.element


def test_each_kind_builds_its_pinned_matrix():
    r, h = math.sqrt(1 - T * T), 1 / SQ2
    pins = [
        (element_spec("pbs", "a b t r"), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        (element_spec("ppbs", "a b a c", T),
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, T, -r], [0, 0, r, T]]),
        (element_spec("hwp", "a", 22.5), [[h, h], [h, -h]]),
        (element_spec("jones", "a", 0.6, -0.8j, 0.8, 0.6j), [[0.6, -0.8j], [0.8, 0.6j]]),
        (element_spec("filter", "a", 0.5, 0.25), [[0.5, 0], [0, 0.25]]),
        (element_spec("phaseflip", "a"), [[1, 0], [0, -1]]),
    ]
    for pinned, matrix in pins:
        built = pinned.build()
        assert built.dtype == complex
        assert np.allclose(built, matrix, atol=1e-15, rtol=0), pinned.name


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_elements_reject_non_finite_parameters(bad):
    for make in (
        lambda: element("hwp", "t", bad),
        lambda: element("jones", "t", bad, 0.0, 0.0, 0.5),
        lambda: element("jones", "t", 0.5, 0.0, 0.0, complex(0.0, bad)),
        lambda: element("ppbs", "a b a b", bad),
        lambda: element("filter", "t", bad, 0.5),
        lambda: element("filter", "t", 0.5, bad),
    ):
        with pytest.raises(ValueError):
            make()
    with pytest.raises(ValueError, match="non-finite"):
        element("hwp", "t", float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        element("jones", "t", 0.5, bad, 0.0, 0.5)
    # built in code, not parsed: a non-finite value or one that is not a number
    # is a ValueError naming the kind and the field, not a failure inside ``matrix``
    for kind_name, kind in KINDS.items():
        spec = _sample_spec(kind_name)
        for at, f in enumerate(f for f in kind.fields for _ in range(f.count)):
            for wrong, message in (
                (bad, f"is non-finite: {bad}"),
                ("x", "must be a number, got 'x'"),
                (None, "must be a number, got None"),
            ):
                params = spec.params[:at] + (wrong,) + spec.params[at + 1:]
                with pytest.raises(ValueError, match=f"^{kind_name} {f.key} {re.escape(message)}$"):
                    replace(spec, params=params).build()
