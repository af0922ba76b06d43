"""Uniform vertex-centered grids with zero-flux (Neumann) boundaries.

The discrete Laplacian uses mirror ghost nodes, so it annihilates constants
exactly and is self-adjoint with respect to the trapezoid quadrature weights.
Means, L2 norms and the H1 seminorm are all normalized by the domain volume,
which makes the discrete Poincare-Wirtinger inequality

    ||f - mean(f)||_2^2  <=  h1_seminorm(f)^2 / mu_2^h

hold exactly (mu_2^h is the smallest nonzero eigenvalue of the discrete
operator, (2/h^2)(1 - cos(pi h / L)) per axis).

One code path serves 1-D and 2-D: per-axis pieces are combined by outer
products and sums over the axes.  :class:`SimState` holds the pair (u, v)
on one grid at one time.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import TYPE_CHECKING

import numpy as np

from .errors import GridMismatchError, ParameterError

if TYPE_CHECKING:
    from .kinetics import ModelParams

__all__ = [
    "Grid",
    "Field",
    "SimState",
    "transform_w",
    "transform_z",
    "neumann_eigenvalue",
    "discrete_neumann_eigenvalue",
    "second_eigenvalue",
]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on an interval (1-D) or rectangle (2-D).

    Nodes sit on the boundary: along an axis of length ``L`` with ``n`` nodes
    the spacing is ``h = L / (n - 1)``.
    """

    lengths: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        lengths = tuple(float(x) for x in self.lengths)
        counts = tuple(int(n) for n in self.counts)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "counts", counts)
        if len(lengths) not in (1, 2):
            raise ParameterError(f"grid dimension must be 1 or 2, got {len(lengths)}")
        if len(lengths) != len(counts):
            raise ParameterError(
                f"lengths/counts rank mismatch: {len(lengths)} vs {len(counts)}"
            )
        for ax, L in enumerate(lengths):
            if not (L > 0.0 and math.isfinite(L)):
                raise ParameterError(f"grid length along axis {ax} must be positive, got {L}")
        for ax, n in enumerate(counts):
            if n < 3:
                raise ParameterError(f"grid needs at least 3 nodes per axis, got {n} on axis {ax}")
        for ax, h in enumerate(self.spacings):  # the Laplacian divides by h^2
            if not (h * h > 0.0 and 1.0 / (h * h) < math.inf):
                raise ParameterError(f"grid spacing along axis {ax} is too small, got {h}")

    @classmethod
    def interval(cls, length: float, n: int) -> "Grid":
        """1-D grid on [0, length] with n nodes."""
        return cls((length,), (n,))

    @classmethod
    def rectangle(cls, lx: float, ly: float, nx: int, ny: int) -> "Grid":
        """2-D grid on [0, lx] x [0, ly] with nx * ny nodes."""
        return cls((lx, ly), (nx, ny))

    # -- basic geometry -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @cached_property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / (n - 1) for L, n in zip(self.lengths, self.counts))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates along each axis."""
        return tuple(
            np.linspace(0.0, L, n) for L, n in zip(self.lengths, self.counts)
        )

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to the full grid shape (ij indexing)."""
        return tuple(np.meshgrid(*self.coords(), indexing="ij"))

    def axis_weights(self) -> tuple[np.ndarray, ...]:
        """Trapezoid quadrature weights along each axis (h/2 at the ends).

        Built once per grid; the arrays are shared and read-only.
        """
        return self._axis_weights

    def weights(self) -> np.ndarray:
        """Full quadrature weight array (outer product of the axis weights).

        Built once per grid; the array is shared and read-only.
        """
        return self._weights

    @cached_property
    def _axis_weights(self) -> tuple[np.ndarray, ...]:
        out = []
        for h, n in zip(self.spacings, self.counts):
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
            w.setflags(write=False)
            out.append(w)
        return tuple(out)

    @cached_property
    def _weights(self) -> np.ndarray:
        w = reduce(np.multiply.outer, self._axis_weights)
        w.setflags(write=False)
        return w

    # -- operators on raw value arrays ---------------------------------

    def _check_values(self, values: np.ndarray) -> np.ndarray:
        a = np.asarray(values, dtype=float)
        if a.shape != self.shape:
            raise GridMismatchError(
                f"value array shape {a.shape} does not match grid shape {self.shape}"
            )
        return a

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Mirror-ghost Neumann Laplacian applied to a value array."""
        a = self._check_values(values)
        return reduce(np.add, (_second_difference(a, h, ax) for ax, h in enumerate(self.spacings)))

    def integral(self, values: np.ndarray) -> float:
        """Trapezoid-rule integral over the domain (not normalized)."""
        a = self._check_values(values)
        return float(np.sum(self.weights() * a))

    def mean(self, values: np.ndarray) -> float:
        """Volume-normalized trapezoid mean."""
        return self.integral(values) / self.volume

    def deviation(self, values: np.ndarray) -> np.ndarray:
        """Field minus its quadrature mean (exactly mean-free)."""
        a = self._check_values(values)
        return a - self.mean(a)

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Volume-normalized quadrature inner product."""
        fa = self._check_values(f)
        ga = self._check_values(g)
        return float(np.sum(self.weights() * fa * ga)) / self.volume

    def l2_norm(self, values: np.ndarray) -> float:
        """Volume-normalized L2 norm."""
        a = self._check_values(values)
        return math.sqrt(max(self.inner(a, a), 0.0))

    def linf_norm(self, values: np.ndarray) -> float:
        a = self._check_values(values)
        return float(np.max(np.abs(a)))

    def dirichlet_form(self, f: np.ndarray, g: np.ndarray) -> float:
        """Volume-normalized gradient pairing sum_cells grad(f).grad(g).

        Built from forward differences on cells with trapezoid weights in the
        transverse directions; by summation by parts it equals
        ``-inner(laplacian(f), g)`` exactly, which is what makes the discrete
        energy identities close to round-off.
        """
        fa = self._check_values(f)
        ga = self._check_values(g)
        if self.dim == 1:
            h = self.spacings[0]
            total = float(np.dot(np.diff(fa), np.diff(ga))) / h
        else:
            hx, hy = self.spacings
            wx, wy = self.axis_weights()
            dfx = np.diff(fa, axis=0)
            dgx = np.diff(ga, axis=0)
            total = float(np.sum((dfx * dgx) @ wy)) / hx
            dfy = np.diff(fa, axis=1)
            dgy = np.diff(ga, axis=1)
            total += float(np.sum(wx @ (dfy * dgy))) / hy
        return total / self.volume

    def h1_seminorm(self, values: np.ndarray) -> float:
        """Volume-normalized discrete gradient norm ||grad f||_2."""
        return math.sqrt(max(self.dirichlet_form(values, values), 0.0))


def _second_difference(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second difference along one axis with mirror ghost nodes at the ends."""
    v = np.moveaxis(a, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
    out[0] = 2.0 * (v[1] - v[0])
    out[-1] = 2.0 * (v[-2] - v[-1])
    out /= h * h
    return np.moveaxis(out, 0, axis)


@dataclass(eq=False)
class Field:
    """Nodal scalar field attached to a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.values, dtype=float)
        if a.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {a.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise ParameterError("field values must all be finite")
        self.values = a

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass
class SimState:
    """Time level with both species on a shared grid."""

    t: float
    u: Field
    v: Field

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise ParameterError("u and v must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid


def transform_w(state: SimState, p: ModelParams) -> Field:
    """Diffusion-weighted combination w = D u + v."""
    return Field(state.grid, p.D * state.u.values + state.v.values)


def transform_z(state: SimState) -> Field:
    """Total local density z = u + v (model-2 working variable)."""
    return Field(state.grid, state.u.values + state.v.values)


def neumann_eigenvalue(g: Grid, j: int) -> float:
    """j-th smallest continuum Neumann eigenvalue of -Laplace on the domain.

    1-indexed and sorted ascending with multiplicity: j = 1 gives 0.  In 1-D
    the eigenvalues are ((j-1) pi / L)^2; in 2-D they are the sorted sums
    (p pi / Lx)^2 + (q pi / Ly)^2 over integer pairs p, q >= 0.
    """
    if j < 1:
        raise ParameterError(f"eigenvalue index must be >= 1, got {j}")
    try:  # the j smallest sums only ever involve indices <= j
        vals = sorted(
            sum((p * math.pi / L) ** 2 for p, L in zip(ps, g.lengths))
            for ps in itertools.product(range(j + 1), repeat=g.dim)
        )
    except OverflowError:
        raise ParameterError(f"Neumann eigenvalue {j} overflows on lengths {g.lengths}") from None
    return vals[j - 1]


def _axis_discrete_eigenvalues(L: float, n: int) -> np.ndarray:
    h = L / (n - 1)
    k = np.arange(n)
    return (2.0 / (h * h)) * (1.0 - np.cos(np.pi * k * h / L))


def discrete_neumann_eigenvalue(g: Grid, j: int) -> float:
    """j-th smallest eigenvalue of the discrete operator -laplacian.

    The 1-D stencil is diagonalized by sampled cosines, giving
    mu_k^h = (2/h^2)(1 - cos(pi k h / L)), k = 0..n-1; in 2-D the spectrum is
    the sorted set of sums of the per-axis values.
    """
    if j < 1:
        raise ParameterError(f"eigenvalue index must be >= 1, got {j}")
    per_axis = [_axis_discrete_eigenvalues(L, n) for L, n in zip(g.lengths, g.counts)]
    sums = np.sort(reduce(np.add.outer, per_axis).ravel())
    if j > sums.size:
        raise ParameterError(
            f"discrete spectrum has only {sums.size} eigenvalues, asked for {j}"
        )
    return float(sums[j - 1])


# the eigenvalue flavours a mu2 mode names: the continuum (j pi / L)^2 or the grid's own
EIGENVALUE_MODES = {"continuum": neumann_eigenvalue, "discrete": discrete_neumann_eigenvalue}


def second_eigenvalue(g: Grid, mode: str = "continuum") -> float:
    """Smallest nonzero Neumann eigenvalue, continuum or discrete flavor."""
    if mode not in EIGENVALUE_MODES:
        names = " or ".join(map(repr, EIGENVALUE_MODES))
        raise ParameterError(f"unknown eigenvalue mode {mode!r} (use {names})")
    return EIGENVALUE_MODES[mode](g, 2)
