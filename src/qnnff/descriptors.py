"""Classical preprocessing: Cartesian -> internal coordinates -> scaling ->
nonlinearity, with analytic Jacobians for the force chain rule.

Internal coordinates are translation and rotation invariant by construction.
Sign conventions pinned here (and by the finite-difference tests):

* bond(i, j): r = |r_i - r_j|, d r / d r_i = (r_i - r_j) / r.
* angle(i, j, k): vertex at j, theta = arccos(u.v / |u||v|) with
  u = r_i - r_j, v = r_k - r_j, in [0, pi].
* dihedral(i, j, k, l): signed angle between the (i, j, k) and (j, k, l)
  planes, d = sign(chi) * arccos(b1.b2 / |b1||b2|) with b1 = r_ij x r_kj,
  b2 = r_kj x r_kl, chi = r_kj . (b1 x b2) and r_ab = r_a - r_b.  The result
  lies in (-pi, pi]; a planar trans arrangement maps to +pi (sign(0) -> +).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ArgumentError, DegenerateGeometryError, ScalerError

_EPS_COINCIDENT = 1e-8
_EPS_CROSS = 1e-10
_EPS_COLLINEAR = 1e-10
CLAMP_EPS = 1e-6

NONLINEARITIES = ("pi_scale", "arcsin", "arccos", "identity")


@dataclass(frozen=True, eq=False)
class MoleculeGeometry:
    """Element labels plus a flat Cartesian coordinate vector in Angstrom."""

    elements: tuple[str, ...]
    cartesian: np.ndarray

    def __post_init__(self):
        cart = np.asarray(self.cartesian, dtype=float).ravel()
        if cart.size != 3 * len(self.elements):
            raise ArgumentError(
                f"{len(self.elements)} atoms need {3 * len(self.elements)} "
                f"coordinates, got {cart.size}"
            )
        object.__setattr__(self, "cartesian", cart)
        object.__setattr__(self, "elements", tuple(self.elements))


def _positions(geom) -> np.ndarray:
    if isinstance(geom, MoleculeGeometry):
        geom = geom.cartesian
    return np.asarray(geom, dtype=float).reshape(-1, 3)


def _distinct(*indices):
    if len(set(indices)) != len(indices):
        raise ArgumentError(f"atom indices must be distinct, got {indices}")


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (B, 3) arrays: the arithmetic of
    ``np.cross`` without its call overhead."""
    return (a.take(_NEXT, axis=1) * b.take(_PREV, axis=1)
            - a.take(_PREV, axis=1) * b.take(_NEXT, axis=1))


def _gradient(pos: np.ndarray, parts) -> np.ndarray:
    """(B, 3n) gradient from (atom, (B, 3) block) pairs."""
    grad = np.zeros(pos.shape)
    for atom, block in parts:
        grad[:, atom] = block
    return grad.reshape(len(pos), -1)


class _Coordinate:
    """An internal coordinate whose ``batch`` kernel maps (B, n, 3)
    positions to values (B,) and gradients (B, 3n), NaN where undefined.
    np.vecdot runs the same BLAS dot as ``a[k] @ b[k]``, so each row rounds
    as the product of one pair of vectors does."""

    def evaluate(self, geom):
        """(value, gradient) on one geometry, as a batch of one."""
        value, grad = self.batch(_positions(geom)[None])
        if math.isnan(value[0]):
            raise DegenerateGeometryError(
                f"{self} is undefined: coincident or collinear atoms")
        return float(value[0]), grad[0]


@dataclass(frozen=True)
class Bond(_Coordinate):
    i: int
    j: int

    def batch(self, pos: np.ndarray):
        i, j = self.i, self.j
        _distinct(i, j)
        diff = pos[:, i] - pos[:, j]
        r = np.sqrt(np.vecdot(diff, diff))
        r[r <= _EPS_COINCIDENT] = np.nan
        unit = diff / r[:, None]
        return r, _gradient(pos, ((i, unit), (j, -unit)))


@dataclass(frozen=True)
class Angle(_Coordinate):
    i: int
    j: int
    k: int

    def batch(self, pos: np.ndarray):
        i, j, k = self.i, self.j, self.k
        _distinct(i, j, k)
        u = pos[:, i] - pos[:, j]
        v = pos[:, k] - pos[:, j]
        ru = np.sqrt(np.vecdot(u, u))
        rv = np.sqrt(np.vecdot(v, v))
        bad = (ru <= _EPS_COINCIDENT) | (rv <= _EPS_COINCIDENT)
        ru[bad] = rv[bad] = np.nan
        cosang = np.vecdot(u, v) / (ru * rv)
        if (np.abs(cosang) >= 1.0 - _EPS_COLLINEAR).any():
            warnings.warn(f"near-collinear angle ({i},{j},{k}); arccos "
                          "argument clamped", RuntimeWarning, stacklevel=3)
            cosang = np.clip(cosang, -1.0 + _EPS_COLLINEAR, 1.0 - _EPS_COLLINEAR)
        theta = np.arccos(cosang)
        sin = np.sqrt(1.0 - cosang * cosang)[:, None]
        c, ru, rv = cosang[:, None], ru[:, None], rv[:, None]
        di = (c * u / ru - v / rv) / (ru * sin)
        dk = (c * v / rv - u / ru) / (rv * sin)
        return theta, _gradient(pos, ((i, di), (k, dk), (j, -(di + dk))))


@dataclass(frozen=True)
class Dihedral(_Coordinate):
    i: int
    j: int
    k: int
    l: int

    def batch(self, pos: np.ndarray):
        i, j, k, l = self.i, self.j, self.k, self.l
        _distinct(i, j, k, l)
        f = pos[:, i] - pos[:, j]
        g = pos[:, j] - pos[:, k]
        h = pos[:, l] - pos[:, k]
        a = _cross(f, g)
        b = _cross(h, g)
        na2 = np.vecdot(a, a)
        nb2 = np.vecdot(b, b)
        ng = np.sqrt(np.vecdot(g, g))
        ng[(na2 <= _EPS_CROSS ** 2) | (nb2 <= _EPS_CROSS ** 2)
           | (ng <= _EPS_COINCIDENT)] = np.nan
        # b1 = f x (-g) = -a and b2 = (-g) x (-h) = -b, so b1.b2 = a.b and
        # the sign scalar chi = r_kj.(b1 x b2) equals (b x a).g
        angle = np.arctan2(np.vecdot(_cross(b, a), g) / ng, np.vecdot(a, b))
        angle[angle <= -np.pi + 1e-15] = np.pi
        fg = np.vecdot(f, g)[:, None]
        hg = np.vecdot(h, g)[:, None]
        ng, na2, nb2 = ng[:, None], na2[:, None], nb2[:, None]
        di = -(ng / na2) * a
        dl = (ng / nb2) * b
        dj = (ng / na2) * a + (fg / (na2 * ng)) * a - (hg / (nb2 * ng)) * b
        dk = -(ng / nb2) * b - (fg / (na2 * ng)) * a + (hg / (nb2 * ng)) * b
        return angle, _gradient(pos, ((i, di), (j, dj), (k, dk), (l, dl)))


def bond_length(geom, i: int, j: int):
    """Distance between atoms i and j, with its gradient over all 3n coords."""
    return Bond(i, j).evaluate(geom)


def bond_angle(geom, i: int, j: int, k: int):
    """Angle at vertex j between arms j->i and j->k, in [0, pi]."""
    return Angle(i, j, k).evaluate(geom)


def dihedral(geom, i: int, j: int, k: int, l: int):
    """Signed dihedral for the atom chain (i, j, k, l), in (-pi, pi]."""
    return Dihedral(i, j, k, l).evaluate(geom)


def internal_coordinates(coords, geoms):
    """Values (B, C) of ``coords`` on a (B, 3n) matrix or a list of
    equal-length geometries, and their Cartesian gradients (B, C, 3n).  An
    undefined coordinate raises ``DegenerateGeometryError`` naming its
    geometry."""
    geoms = np.asarray(geoms, dtype=float)
    pos = geoms.reshape(len(geoms), -1, 3)
    values, grads = zip(*(c.batch(pos) for c in coords))
    values = np.array(values).T
    if np.isnan(values).any():
        row, col = np.argwhere(np.isnan(values))[0]
        raise DegenerateGeometryError(
            f"geometry {row}: {coords[col]} is undefined "
            f"(coincident or collinear atoms)")
    return values, np.array(grads).transpose(1, 0, 2)


_KINDS = {cls.__name__.lower(): cls for cls in (Bond, Angle, Dihedral)}


def coord_to_tuple(coord):
    if type(coord) not in _KINDS.values():
        raise ArgumentError(f"unknown coordinate {coord!r}")
    return (type(coord).__name__.lower(), *astuple(coord))


def coord_from_tuple(t):
    kind, *idx = t
    if kind not in _KINDS:
        raise ArgumentError(f"unknown coordinate kind {kind!r}")
    return _KINDS[kind](*idx)


def minmax_fit(values) -> tuple[float, float]:
    """Column extrema for the affine [-1, 1] scaler."""
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if not np.isfinite(lo + hi):
        raise ScalerError(f"non-finite column (min {lo}, max {hi}) cannot be scaled")
    if hi <= lo:
        raise ScalerError(f"constant column (min == max == {lo}) cannot be scaled")
    return lo, hi


def minmax_apply(x, lo: float, hi: float):
    """Affine map sending [lo, hi] onto [-1, 1]; out-of-range passes through."""
    return 2.0 * (np.asarray(x, dtype=float) - lo) / (hi - lo) - 1.0


def minmax_derivative(lo: float, hi: float) -> float:
    return 2.0 / (hi - lo)


@dataclass
class DescriptorPipeline:
    """Composition internal(C) -> minmax -> nonlinearity, one row per feature.

    ``features`` maps each output feature to (source coordinate index,
    nonlinearity tag), which lets several features share one coordinate.
    Bounds come from ``fit`` on the training geometries; inputs that land
    outside the arcsin/arccos domain are clamped and counted in
    ``clamp_count``.
    """

    coords: tuple
    features: tuple[tuple[int, str], ...]
    bounds: tuple[tuple[float, float], ...] | None = None
    clamp_count: int = field(default=0, compare=False)

    def __post_init__(self):
        self.coords = tuple(self.coords)
        self.features = tuple((int(s), str(tag)) for s, tag in self.features)
        for src, tag in self.features:
            if not 0 <= src < len(self.coords):
                raise ArgumentError(f"feature source {src} out of range")
            if tag not in NONLINEARITIES:
                raise ArgumentError(f"unknown nonlinearity {tag!r}")
        self._source = np.array([src for src, _ in self.features], dtype=int)
        tags = np.array([tag for _, tag in self.features])
        self._tag = {tag: tags == tag for tag in NONLINEARITIES}
        if self.bounds is not None:
            self.bounds = tuple((float(a), float(b)) for a, b in self.bounds)
            for lo, hi in self.bounds:
                if not (np.isfinite(lo + hi) and hi > lo):
                    raise ScalerError(f"invalid bounds ({lo}, {hi})")

    @property
    def num_features(self) -> int:
        return len(self.features)

    def _features(self, q):
        """Features (B, N) of internal coordinates q (B, C) and their slopes
        d(feature)/d(source coordinate).  arcsin/arccos clamp and count a
        scaled value beyond 1 - CLAMP_EPS; their slope is taken strictly
        inside (-1, 1), so Jacobians stay finite."""
        src, tag = self._source, self._tag
        lo, hi = np.array(self.bounds)[src].T
        x = minmax_apply(q[:, src], lo, hi)
        arc = tag["arcsin"] | tag["arccos"]
        self.clamp_count += int(np.count_nonzero(arc & (np.abs(x) > 1.0 - CLAMP_EPS)))
        arg = np.minimum(np.maximum(x, -1.0), 1.0)
        inner = np.minimum(np.maximum(x, -1.0 + CLAMP_EPS), 1.0 - CLAMP_EPS)
        d = 1.0 / np.sqrt(1.0 - inner * inner)
        y = np.where(tag["pi_scale"], np.pi * x,
                     np.where(tag["arcsin"], np.arcsin(arg),
                              np.where(tag["arccos"], np.arccos(arg), x)))
        slope = np.where(tag["pi_scale"], np.pi,
                         np.where(tag["arcsin"], d,
                                  np.where(tag["arccos"], -d, 1.0)))
        return y, slope * minmax_derivative(lo, hi)

    def apply_with_jacobian_batch(self, geoms):
        """Features (B, N) plus d(features)/d(cartesian), shape (B, N, 3n)."""
        if self.bounds is None:
            raise ArgumentError("pipeline has no scaler bounds; call fit() first")
        q, dq = internal_coordinates(self.coords, geoms)
        y, slope = self._features(q)
        return y, slope[:, :, None] * dq[:, self._source]

    def scaled_coordinates(self, geoms) -> np.ndarray:
        """Internal coordinates (B, C) through the scaler alone: the fitted
        range is [-1, 1], and a value beyond it is an extrapolation."""
        lo, hi = np.array(self.bounds).T
        return minmax_apply(internal_coordinates(self.coords, geoms)[0], lo, hi)

    def apply_batch(self, geoms) -> np.ndarray:
        return self.apply_with_jacobian_batch(geoms)[0]

    def internal_values(self, geom) -> np.ndarray:
        return internal_coordinates(self.coords, _positions(geom)[None])[0][0]

    def fit(self, geometries) -> "DescriptorPipeline":
        """Set scaler bounds from the extrema of each internal coordinate."""
        table = internal_coordinates(self.coords, geometries)[0]
        self.bounds = tuple(minmax_fit(column) for column in table.T)
        return self

    def apply(self, geom) -> np.ndarray:
        return self.apply_batch(_positions(geom)[None])[0]

    def jacobian(self, geom) -> np.ndarray:
        return self.apply_with_jacobian(geom)[1]

    def apply_with_jacobian(self, geom):
        """Feature vector plus d(features)/d(cartesian), shape (N, 3n)."""
        y, jac = self.apply_with_jacobian_batch(_positions(geom)[None])
        return y[0], jac[0]


def pipeline_to_dict(p: DescriptorPipeline) -> dict:
    return {
        "coords": [list(coord_to_tuple(c)) for c in p.coords],
        "features": [[src, tag] for src, tag in p.features],
        "bounds": None if p.bounds is None else [list(b) for b in p.bounds],
    }


def pipeline_from_dict(d: dict) -> DescriptorPipeline:
    coords = tuple(coord_from_tuple(tuple(c)) for c in d["coords"])
    features = tuple((int(s), str(t)) for s, t in d["features"])
    bounds = d.get("bounds")
    if bounds is not None:
        bounds = tuple((float(a), float(b)) for a, b in bounds)
    return DescriptorPipeline(coords, features, bounds)
