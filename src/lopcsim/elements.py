"""The element kinds of the gate circuits: one ``KINDS`` entry per kind,
holding its ports, its numeric fields and its mode matrix.

Phase conventions, fixed once for the whole package and pinned by the
oracle-equivalence tests:

* matrix columns are input modes, rows are output modes
  (a†_in[i] -> sum_j M[j, i] a†_out[j]);
* a beam splitter ``(a, b, t, r)`` takes the modes (a H, b H, a V, b V) in
  and gives (t H, r H, t V, r V) out, and its inputs may be its outputs (a
  beam continuing on the same line); every other kind acts on (H, V) of its
  one path.  ``gates.CompiledCircuit`` places these modes on its rows.

Angles are accepted in degrees, matching how wave-plate settings are
usually quoted on the bench.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class ElementSpec:
    """Declarative description of one element: kind, wiring and parameters.

    ``paths`` (inputs then outputs for beam splitters, the acted-on path
    otherwise) and ``params`` (tv for ppbs, the angle for hwp, row-major
    entries for jones, (th, tv) for filter) are flattened in the order of
    the kind's ``KINDS`` entry.  ``line`` remembers the source line when
    the element came from a parsed netlist.
    """

    kind: str
    name: str
    paths: tuple[str, ...]
    params: tuple[complex, ...] = ()
    line: int | None = field(default=None, compare=False)

    def checked_kind(self) -> tuple[ElementKind, list[float | complex]]:
        """This spec's ``KINDS`` entry and its parameters as ``matrix`` takes them,
        floats for the real fields; ValueError on an unknown kind, a path or parameter
        count it does not take, a non-number, an imaginary part in a real field, or,
        once every field has passed those, a non-finite value."""
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown element kind {self.kind!r}")
        paths = sum(n for _, n in kind.ports)
        if len(self.paths) != paths:
            raise ValueError(f"{self.kind} takes {paths} paths, got {len(self.paths)}")
        fields = [f for f in kind.fields for _ in range(f.count)]
        if len(self.params) != len(fields):
            raise ValueError(f"{self.kind} takes {len(fields)} parameters, got {len(self.params)}")
        values: list[float | complex] = []
        for f, p in zip(fields, self.params):
            # builtin types first: an isinstance check against the ABC costs about 1 µs
            if not isinstance(p, (complex, float, int, numbers.Complex)):
                raise ValueError(f"{self.kind} {f.key} must be a number, got {p!r}")
            if f.is_complex:
                values.append(p)
            elif p.imag:
                raise ValueError(f"{self.kind} {f.key} must be real, got {p}")
            else:
                values.append(float(p.real))
        for f, value in zip(fields, values):
            if not cmath.isfinite(value):
                raise ValueError(f"{self.kind} {f.key} is non-finite: {value}")
        return kind, values

    def build(self) -> np.ndarray:
        """The element's matrix, read-only; ValueError from ``checked_kind``,
        from ``matrix`` or on repeated splitter ports."""
        kind, values = self.checked_kind()
        matrix = kind.matrix(*values)
        matrix.flags.writeable = False
        if len(self.paths) == 4:
            a, b, t, r = self.paths
            if a == b:
                raise ValueError(f"{self.kind} input paths must differ")
            if t == r:
                raise ValueError(f"{self.kind} output paths must differ")
        return matrix

    @cached_property
    def element(self) -> np.ndarray:
        """The matrix from the first ``build`` of this spec; a spec that fails
        to build raises again on every access."""
        return self.build()


class NumericField(NamedTuple):
    """A numeric statement field ``key=<v1>,...``: entry count, type and usage text."""

    key: str
    count: int = 1
    is_complex: bool = False
    usage: str = "<float>"


class ElementKind(NamedTuple):
    """One element kind: (key, path count) of each port field, the numeric
    fields after them, and ``matrix(*values)``, the mode matrix of the finite
    field values in field order; as the one check of the kind's range, it raises
    ValueError on a value out of range, so any matrix it returns is subunitary."""

    ports: tuple[tuple[str, int], ...]
    fields: tuple[NumericField, ...]
    matrix: Callable[..., np.ndarray]

    def port_paths(self, paths: Sequence[str]) -> list[tuple[str, tuple[str, ...]]]:
        """(key, paths) of each port field, cut from the flattened ``paths``."""
        groups, at = [], 0
        for key, count in self.ports:
            groups.append((key, tuple(paths[at:at + count])))
            at += count
        return groups


def _ppbs_matrix(t_v: float) -> np.ndarray:
    """Partially polarizing beam splitter: H passes, V meets the rotation
    [[t, -r], [r, t]], so both straight-through amplitudes are +t and the
    two-photon coincidence amplitude t^2 - r^2 is negative at t = 1/sqrt(3)."""
    if not 0.0 < t_v < 1.0:
        raise ValueError(f"ppbs transmissivity must lie in (0, 1), got {t_v}")
    r_v = math.sqrt(1.0 - t_v * t_v)
    matrix = np.eye(4, dtype=complex)
    matrix[2:, 2:] = np.array([[t_v, -r_v], [r_v, t_v]])
    return matrix


def _hwp_matrix(angle_deg: float) -> np.ndarray:
    """Half-wave plate with its fast axis at θ from horizontal:
    [[cos 2θ, sin 2θ], [sin 2θ, -cos 2θ]], determinant -1 and self-inverse.
    22.5° gives the Hadamard, 45° the polarization swap."""
    theta = math.radians(angle_deg)
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _jones_matrix(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    """Any 2x2 polarization map [[a, b], [c, d]] with no singular value above
    1 + 1e-12: the one kind whose range is not a range of its fields."""
    matrix = np.array([[a, b], [c, d]], dtype=complex)
    top = float(np.linalg.svd(matrix, compute_uv=False)[0])
    if top > 1.0 + 1e-12:
        raise ValueError(f"matrix is not subunitary (max singular value {top!r})")
    return matrix


def _filter_matrix(t_h: float, t_v: float) -> np.ndarray:
    """Diagonal amplitude filter diag(t_h, t_v); neutral when t_h == t_v."""
    for value in (t_h, t_v):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"filter transmissivity must lie in [0, 1], got {value}")
    return np.diag([t_h, t_v]).astype(complex)


_SPLITTER = (("in", 2), ("out", 2))
_PATH = (("path", 1),)

#: Every element kind a netlist can name, and the only description of each; the
#: parser, the renderer, the validator and ``ElementSpec.build`` all read it,
#: and each entry's ``matrix`` is the one check of that kind's range.
KINDS: dict[str, ElementKind] = {
    # polarizing splitter: H maps a -> t and b -> r, V a -> r and b -> t, all by +1
    "pbs": ElementKind(_SPLITTER, (), lambda: np.eye(4, dtype=complex)[[0, 1, 3, 2]]),
    "ppbs": ElementKind(_SPLITTER, (NumericField("tv"),), _ppbs_matrix),
    "hwp": ElementKind(_PATH, (NumericField("angle", usage="<deg>"),), _hwp_matrix),
    # any subunitary 2x2 polarization map, row-major
    "jones": ElementKind(_PATH, (NumericField("m", 4, True, "<a>,<b>,<c>,<d>"),), _jones_matrix),
    "filter": ElementKind(_PATH, (NumericField("th"), NumericField("tv")), _filter_matrix),
    # feed-forward corrector |V> -> -|V>
    "phaseflip": ElementKind(_PATH, (), lambda: np.diag([1.0, -1.0]).astype(complex)),
}
