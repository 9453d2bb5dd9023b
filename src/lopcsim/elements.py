"""Builders for the optical elements of the gate circuits.

Phase conventions, fixed once for the whole package and pinned by the
oracle-equivalence tests:

* matrix columns are input channels, rows are output channels
  (a†_in[i] -> sum_j M[j, i] a†_out[j]);
* PBS blocks are positive permutations: transmission routes straight
  through with amplitude +1, the vertical block is the swap with +1
  reflection amplitudes;
* the PPBS vertical block is the rotation [[t, -r], [r, t]], so both
  straight-through amplitudes are +t and the two-photon coincidence
  amplitude t^2 - r^2 is negative at t = 1/sqrt(3).

Angles are accepted in degrees, matching how wave-plate settings are
usually quoted on the bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .fock import H, V, LinearElement, linear_element

#: PPBS vertical-polarization amplitude transmissivity used by the gate.
T_V = 1.0 / math.sqrt(3.0)
#: Horizontal transmissivity of the polarization-sensitive output filter.
T_F2H = 1.0 / math.sqrt(3.0)

#: Polarization map applied on the lower target arm before the two-photon
#: interference: |V> -> (1/2)|H> + (sqrt(3)/2)|V>.  Equals a half-wave plate
#: at 75 degrees.
TARGET_SPLIT_MATRIX = np.array(
    [[-math.sqrt(3.0) / 2.0, 0.5], [0.5, math.sqrt(3.0) / 2.0]], dtype=complex
)


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

    def checked_kind(self) -> ElementKind:
        """This spec's ``KINDS`` entry; ValueError on an unknown kind or on a
        path or parameter count the kind does not take."""
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown element kind {self.kind!r}")
        paths = sum(n for _, n in kind.ports)
        if len(self.paths) != paths:
            raise ValueError(f"{self.kind} takes {paths} paths, got {len(self.paths)}")
        params = sum(f.count for f in kind.fields)
        if len(self.params) != params:
            raise ValueError(f"{self.kind} takes {params} parameters, got {len(self.params)}")
        return kind

    def build(self) -> LinearElement:
        kind = self.checked_kind()
        flags = [f.is_complex for f in kind.fields for _ in range(f.count)]
        values = [p if is_complex else float(p.real) for p, is_complex in zip(self.params, flags)]
        return kind.builder(self.name, self.paths, values)


class NumericField(NamedTuple):
    """A numeric statement field ``key=<v1>,...``: entry count, type and usage text."""

    key: str
    count: int = 1
    is_complex: bool = False
    usage: str = "<float>"


class ElementKind(NamedTuple):
    """One element kind: (key, path count) of each port field, the numeric
    fields after them, and ``builder(name, paths, values)``, which gets the
    flattened paths and the field values as floats or complex numbers."""

    ports: tuple[tuple[str, int], ...]
    fields: tuple[NumericField, ...]
    builder: Callable[..., LinearElement]

    def port_paths(self, paths: Sequence[str]) -> list[tuple[str, tuple[str, ...]]]:
        """(key, paths) of each port field, cut from the flattened ``paths``."""
        groups, at = [], 0
        for key, count in self.ports:
            groups.append((key, tuple(paths[at:at + count])))
            at += count
        return groups


_SPLITTER = (("in", 2), ("out", 2))
_PATH = (("path", 1),)

#: Every element kind a netlist can name.  The parser, the renderer, the
#: validator and ``ElementSpec.build`` all read this table; the builders
#: look up the module-level functions when they run.
KINDS: dict[str, ElementKind] = {
    "pbs": ElementKind(_SPLITTER, (), lambda n, p, v: pbs(*p, name=n)),
    "ppbs": ElementKind(_SPLITTER, (NumericField("tv"),), lambda n, p, v: ppbs(*p, *v, name=n)),
    "hwp": ElementKind(
        _PATH, (NumericField("angle", usage="<deg>"),), lambda n, p, v: hwp(*p, *v, name=n)
    ),
    "jones": ElementKind(
        _PATH,
        (NumericField("m", 4, True, "<a>,<b>,<c>,<d>"),),
        lambda n, p, v: jones(*p, np.reshape(v, (2, 2)), name=n),
    ),
    "filter": ElementKind(
        _PATH, (NumericField("th"), NumericField("tv")), lambda n, p, v: pol_filter(*p, *v, name=n)
    ),
    "phaseflip": ElementKind(_PATH, (), lambda n, p, v: phase_flip(*p, name=n)),
}


def pbs(in_a: str, in_b: str, out_t: str, out_r: str, name: str = "PBS") -> LinearElement:
    """Polarizing beam splitter: transmits H straight through, reflects V.

    With input ports (a, b) and output ports (t, r): H maps a -> t and
    b -> r with amplitude 1; V maps a -> r and b -> t with amplitude +1.
    Input paths may coincide with output paths (a beam continuing on the
    same line), but the two inputs and the two outputs must each differ.
    """
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 0] = matrix[1, 1] = 1.0  # H block: straight through
    matrix[2, 3] = matrix[3, 2] = 1.0  # V block: positive swap
    return _two_path("pbs", name, (in_a, in_b), (out_t, out_r), matrix)


def ppbs(
    in_a: str, in_b: str, out_a: str, out_b: str, t_v: float, name: str = "PPBS"
) -> LinearElement:
    """Partially polarizing beam splitter: H passes, V splits with amplitude t_v."""
    if not 0.0 < t_v < 1.0:
        raise ValueError(f"ppbs transmissivity must lie in (0, 1), got {t_v}")
    r_v = math.sqrt(1.0 - t_v * t_v)
    matrix = np.eye(4, dtype=complex)
    matrix[2:, 2:] = np.array([[t_v, -r_v], [r_v, t_v]])
    return _two_path("ppbs", name, (in_a, in_b), (out_a, out_b), matrix)


def hwp(path: str, angle_deg: float, name: str = "HWP") -> LinearElement:
    """Half-wave plate at the given fast-axis angle (degrees from horizontal).

    Jones matrix [[cos 2θ, sin 2θ], [sin 2θ, -cos 2θ]]: determinant -1 and
    self-inverse.  22.5° gives the Hadamard, 45° the polarization swap.
    """
    theta = math.radians(angle_deg)
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    matrix = np.array([[c, s], [s, -c]], dtype=complex)
    return _one_path(name, path, matrix)


def jones(path: str, matrix: np.ndarray, name: str = "JONES") -> LinearElement:
    """Arbitrary subunitary 2x2 polarization map on one path."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"jones matrix must be 2x2, got shape {m.shape}")
    return _one_path(name, path, m)


def pol_filter(path: str, t_h: float, t_v: float, name: str = "FILTER") -> LinearElement:
    """Diagonal amplitude filter diag(t_h, t_v); neutral when t_h == t_v."""
    for value in (t_h, t_v):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"filter transmissivity must lie in [0, 1], got {value}")
    return _one_path(name, path, np.diag([t_h, t_v]).astype(complex))


def phase_flip(path: str, name: str = "PLM") -> LinearElement:
    """Feed-forward corrector |V> -> -|V> (diag(1, -1)) on one path."""
    return _one_path(name, path, np.diag([1.0, -1.0]).astype(complex))


def _two_path(
    kind: str, name: str, ins: tuple[str, str], outs: tuple[str, str], matrix: np.ndarray
) -> LinearElement:
    """Beam splitter on channels (a H, b H, a V, b V) of two distinct inputs and outputs."""
    if ins[0] == ins[1]:
        raise ValueError(f"{kind} input paths must differ")
    if outs[0] == outs[1]:
        raise ValueError(f"{kind} output paths must differ")
    channels_in = [(p, pol) for pol in (H, V) for p in ins]
    channels_out = [(p, pol) for pol in (H, V) for p in outs]
    return linear_element(name, channels_in, channels_out, matrix)


def _one_path(name: str, path: str, matrix: np.ndarray) -> LinearElement:
    channels = ((path, H), (path, V))
    return linear_element(name, channels, channels, matrix)
