"""Truncated Euler products and numerical pole-order probes.

The symbolic pole calculus has an exact answer; this module cross-checks
it numerically.  Partial Rankin-Selberg products are evaluated over the
places q <= X from sampled local data, and the pole order at s = 1 is
estimated by least-squares slope of log|L| against a reference curve
evaluated over the same set of places.

Reference curve.  A truncated Euler product cannot follow 1/(s - 1)^m down
to s = 1: at X = 1e5 the truncated zeta log is short of the full one by
about 0.8 at s = 1.03, so regressing log|L| directly on log(1/(s - 1))
under-reports a simple pole by roughly a factor 0.6.  Both products are
truncated identically, though, so regressing log|L| against the log of the
truncated zeta over the same window recovers the multiplicity of the polar
factor essentially exactly.  Small places carry most of the sampling noise
and almost none of the multiplicity signal, so the fit window drops places
below a floor; the pole order is insensitive to any finite set of local
factors, which is the point of working with partial L-functions.

Synthetic local data is drawn from the angle density (2/pi) sin^2(theta),
and a weight-12 eigenvalue table provides a real-world fixture.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .isobaric import (
    IsobaricRep,
    LocalParams,
    SymbolRegistry,
    isobaric,
    rows_at,
    rs_factorization,
)
from .satake import PlaceData, place  # noqa: F401  (place is re-exported)

DEFAULT_GRID = (1.30, 1.20, 1.12, 1.06, 1.03)
DEFAULT_MIN_PLACE = 100  # fit window floor: drop places q <= this
DEFAULT_X = 100_000

_POLE_EPS = 1e-12


class LocalPole(ArithmeticError):
    """A local factor has a pole at the requested s."""


class EstimationError(ArithmeticError):
    """The slope fit received nonfinite values."""


def primes_up_to(x: int) -> list[int]:
    """Rational primes <= x by sieve."""
    if x < 2:
        return []
    sieve = np.ones(x + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(x**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].tolist()


# ---------------------------------------------------------------------------
# Local factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalFactorInput:
    """Unramified local data of a Rankin-Selberg pairing at one place."""

    sigma_params: tuple[complex, ...]
    tau_params: tuple[complex, ...]
    place: PlaceData

    def __post_init__(self):
        sigma = tuple(complex(x) for x in self.sigma_params)
        tau = tuple(complex(x) for x in self.tau_params)
        if any(x == 0 for x in sigma + tau):
            raise ValueError("local parameters must be nonzero")
        object.__setattr__(self, "sigma_params", sigma)
        object.__setattr__(self, "tau_params", tau)


def local_rs_factor(inp: LocalFactorInput, s: complex) -> complex:
    """The product over all parameter pairs of (1 - a_i b_j q^-s)^-1."""
    qs = complex(inp.place.q) ** (-complex(s))
    out = 1.0 + 0.0j
    for a in inp.sigma_params:
        for b in inp.tau_params:
            z = a * b * qs
            if abs(1.0 - z) < _POLE_EPS:
                raise LocalPole(f"local factor pole at q={inp.place.q}, s={s}")
            out /= 1.0 - z
    return out


# ---------------------------------------------------------------------------
# Partial products
# ---------------------------------------------------------------------------


def _sweep_values(r1: IsobaricRep, r2: IsobaricRep, qs: np.ndarray, s_values) -> np.ndarray:
    """Partial product over the places ``qs`` at each s, real or complex: per
    Rankin-Selberg factor one broadcast over (s, place, parameter pair) sums
    log(1 - z), z = a_i b_j q^-(s + shift); the product is exp(-total)."""
    s = np.asarray(s_values, dtype=complex)
    logq = np.log(np.asarray(qs, dtype=float))
    total = np.zeros(len(s), dtype=complex)
    for factor in rs_factorization(r1, r2):
        a = factor.sigma.params[rows_at(factor.sigma, qs)]
        b = factor.tau.params[rows_at(factor.tau, qs)]
        lam = (a[:, :, None] * b[:, None, :]).reshape(len(qs), a.shape[1] * b.shape[1])
        z = lam * np.exp(-np.multiply.outer(s + float(factor.shift), logq))[:, :, None]
        pole = (np.abs(1.0 - z) < _POLE_EPS).any(axis=(1, 2))
        if pole.any():
            raise LocalPole(f"local factor pole at s={s[pole][0]}")
        total += np.log1p(-z).sum(axis=(1, 2))
    return np.exp(-total)


def partial_L(
    r1: IsobaricRep,
    r2: IsobaricRep,
    X: int,
    s: complex,
    *,
    places: Iterable[PlaceData] | None = None,
) -> complex:
    """Truncated Rankin-Selberg product over the places q <= X.

    An explicit place set overrides the bound; the empty set gives the
    empty product 1.  Local data must be present at every requested place.
    """
    qs = primes_up_to(X) if places is None else sorted({pl.q for pl in places})
    return complex(_sweep_values(r1, r2, np.array(qs, dtype=np.int64), [s])[0])


@dataclass(frozen=True)
class EulerProductSweep:
    """Partial-product values along a grid decreasing toward s = 1."""

    s_grid: tuple[float, ...]
    values: tuple[complex, ...]
    X: int

    def __post_init__(self):
        grid = tuple(float(s) for s in self.s_grid)
        vals = tuple(complex(v) for v in self.values)
        if len(grid) != len(vals):
            raise ValueError("grid and values must have equal length")
        if any(g2 >= g1 for g1, g2 in zip(grid, grid[1:])):
            raise ValueError("s grid must be strictly decreasing")
        if grid and grid[-1] <= 1.0:
            raise ValueError("s grid must stay above 1")
        if any(not math.isfinite(abs(v)) for v in vals):
            raise ValueError("sweep values must be finite")
        object.__setattr__(self, "s_grid", grid)
        object.__setattr__(self, "values", vals)


def _log_truncated_zeta(qs: np.ndarray, s: float) -> float:
    return float(-np.log1p(-(qs.astype(float) ** (-s))).sum())


def _check_grid(grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(sorted((float(s) for s in grid), reverse=True))
    if len(grid) < 5:
        raise ValueError("need at least 5 grid points")
    if grid[0] > 1.5 or grid[-1] <= 1.0:
        raise ValueError("grid must lie in (1, 1.5]")
    if len(set(grid)) != len(grid):
        raise ValueError("grid points must be distinct")
    return grid


def estimate_pole_order(
    r1: IsobaricRep,
    r2: IsobaricRep,
    X: int = DEFAULT_X,
    grid: Sequence[float] | None = None,
    *,
    min_place: int = DEFAULT_MIN_PLACE,
) -> float:
    """Estimate ord_{s=1} of the pairing from truncated products.

    Least-squares slope of log|partial L| against the log of the truncated
    zeta over the same window of places (see module docstring for why the
    reference is the matched truncated zeta rather than log(1/(s - 1))).
    The window keeps places with min_place < q <= X.
    """
    est, _ = estimate_with_sweep(r1, r2, X, grid, min_place=min_place)
    return est


def estimate_with_sweep(
    r1: IsobaricRep,
    r2: IsobaricRep,
    X: int = DEFAULT_X,
    grid: Sequence[float] | None = None,
    *,
    min_place: int = DEFAULT_MIN_PLACE,
) -> tuple[float, EulerProductSweep]:
    """Pole-order estimate together with the underlying sweep values."""
    grid = _check_grid(DEFAULT_GRID if grid is None else grid)
    window = np.array([p for p in primes_up_to(X) if p > min_place], dtype=np.int64)
    if not len(window):
        raise ValueError(f"no places in window ({min_place}, {X}]")
    values = _sweep_values(r1, r2, window, grid)
    y = np.log(np.abs(values))
    x = np.array([_log_truncated_zeta(window, s) for s in grid])
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
        raise EstimationError("nonfinite values in slope fit")
    slope = float(np.polyfit(x, y, 1)[0])
    sweep = EulerProductSweep(grid, tuple(complex(v) for v in values), X)
    return slope, sweep


# ---------------------------------------------------------------------------
# Synthetic local data
# ---------------------------------------------------------------------------


def _angle_cdf(theta: np.ndarray) -> np.ndarray:
    return (theta - np.sin(theta) * np.cos(theta)) / math.pi


def _sato_tate_params(seed: int, n: int) -> np.ndarray:
    """(n, 2) synthetic tempered GL(2) parameters {e^{i theta_k}, e^{-i theta_k}},
    theta_k drawn from the density (2/pi) sin^2 by inverse CDF (bisection to
    below 1e-10).  The stream is a deterministic function of the seed; the
    generator is PCG64, a named 64-bit generator with published reference output."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(n)
    lo = np.zeros_like(u)
    hi = np.full_like(u, math.pi)
    for _ in range(48):  # pi / 2^48 < 1e-10
        mid = 0.5 * (lo + hi)
        below = _angle_cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    theta = 0.5 * (lo + hi)
    a = np.cos(theta) + 1j * np.sin(theta)
    return np.stack([a, a.conj()], axis=1)


def sample_sato_tate(seed: int, primes: Sequence[int]) -> dict[int, tuple[complex, complex]]:
    """``_sato_tate_params`` keyed by prime: p -> (e^{i theta_p}, e^{-i theta_p})."""
    params = _sato_tate_params(seed, len(primes)).tolist()
    return {int(p): (a, b) for p, (a, b) in zip(primes, params)}


def sato_tate_symbol(
    registry: SymbolRegistry,
    sid: str,
    seed: int,
    primes: Sequence[int],
    *,
    central_char: str = "1",
):
    """Register a self-dual degree-2 symbol carrying synthetic local data."""
    local = LocalParams(primes, _sato_tate_params(seed, len(primes)))
    return registry.create(sid, 2, central_char=central_char, self_dual=True, local=local)


def stream_seed(seed: int, key: str) -> int:
    """Seed of the synthetic stream named ``key`` under the run seed (FNV-1a mix)."""
    h = 1469598103934665603
    for ch in key:
        h = (h ^ ord(ch)) * 1099511628211 % (2**63)
    return (seed * 1_000_003 + h) % (2**63)


def synthetic_reps(descriptors, seed: int, X: int) -> list[IsobaricRep]:
    """Transfers of lifted descriptors, rebuilt over synthetic angle data.

    Every degree-2 symbol gets data at all primes <= X in a shadow registry.
    The identification pattern of the descriptors is preserved: each dual
    pair of symbol ids shares one stream seeded by (seed, smaller id), the
    dual side receives the entrywise inverses, and self-dual symbols get
    plain inverse-closed angle data.  Non-self-dual symbols additionally
    carry a place-varying unimodular central twist, so that a symbol is
    locally equivalent to its dual only when it is declared self-dual.
    """
    primes = primes_up_to(X)
    shadow = SymbolRegistry()
    for desc in descriptors:
        if not desc.from_gso:
            raise ValueError("numeric estimates need degree-2 constituents")
        for sym in desc.pair:
            base = sym if sym.id <= sym.dual_id else sym.dual()
            if base.id in shadow:
                continue
            params = _sato_tate_params(stream_seed(seed, base.id + ":angles"), len(primes))
            if not sym.is_self_dual:
                # angle and twist streams must be independent
                rng = np.random.Generator(np.random.PCG64(stream_seed(seed, base.id + ":twist")))
                params = np.exp(2j * math.pi * rng.random(len(primes)))[:, None] * params
            shadow.create(base.id, 2, central_char=base.central_char_id, self_dual=sym.is_self_dual,
                          dual_id=base.dual_id, local=LocalParams(primes, params))
    return [isobaric([shadow.get(s.id) for s in desc.pair]) for desc in descriptors]


# ---------------------------------------------------------------------------
# Weight-12 eigenvalue fixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenvalueRow:
    p: int
    a_p: int
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class EigenvalueTable:
    """Hecke data with normalized Satake parameters for a fixed weight."""

    weight: int
    rows: tuple[EigenvalueRow, ...]


@lru_cache(maxsize=4)
def _discriminant_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of prod_{m>=1} (1 - x^m)^24 up to x^(n-1), exact integers.

    The cube of the product is the sparse triangular-number series
    sum_k (-1)^k (2k+1) x^{k(k+1)/2}; eight sparse multiplications give the
    24th power without any dense-times-dense convolution.
    """
    sparse = []
    k = 0
    while k * (k + 1) // 2 < n:
        sparse.append(((-1) ** k * (2 * k + 1), k * (k + 1) // 2))
        k += 1
    cur = [0] * n
    cur[0] = 1
    for _ in range(8):
        new = [0] * n
        for coef, e in sparse:
            if coef == 1:
                for i in range(n - e):
                    new[i + e] += cur[i]
            else:
                for i in range(n - e):
                    new[i + e] += coef * cur[i]
        cur = new
    return tuple(cur)


def ramanujan_tau(m: int) -> int:
    """m-th coefficient of x * prod (1 - x^m)^24."""
    if m < 1:
        raise ValueError("index must be >= 1")
    return _discriminant_coeffs(m)[m - 1]


def _normalized_pair(a_p: int, p: int, weight: int) -> tuple[complex, complex]:
    t = a_p / p ** ((weight - 1) / 2)
    disc = 4.0 - t * t
    if disc >= 0:
        alpha = complex(t / 2.0, math.sqrt(disc) / 2.0)
        return alpha, alpha.conjugate()
    root = math.sqrt(-disc) / 2.0
    return complex(t / 2.0 + root), complex(t / 2.0 - root)


def delta_eigenvalues(N: int) -> EigenvalueTable:
    """Eigenvalue table of the weight-12 cusp form for primes p <= N.

    a_p is the p-th coefficient of x * prod (1 - x^m)^24, computed exactly;
    alpha, beta are the normalized parameters with alpha * beta = 1 and
    alpha + beta = a_p / p^(11/2).
    """
    if N > 10_000:
        raise ValueError("fixture is desk-scale: N <= 10^4")
    coeffs = _discriminant_coeffs(max(N, 1))
    rows = []
    for p in primes_up_to(N):
        a_p = coeffs[p - 1]
        alpha, beta = _normalized_pair(a_p, p, 12)
        rows.append(EigenvalueRow(p, a_p, alpha, beta))
    return EigenvalueTable(12, tuple(rows))


def eigen_symbol(registry: SymbolRegistry, sid: str, table: EigenvalueTable):
    """Register a self-dual degree-2 symbol carrying the table's parameters."""
    local = LocalParams([r.p for r in table.rows], [(r.alpha, r.beta) for r in table.rows])
    return registry.create(sid, 2, central_char="1", self_dual=True, local=local)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def read_eigenvalue_csv(path, weight: int = 12) -> EigenvalueTable:
    """Ingest rows of p,a_p and attach normalized parameters."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["p", "a_p"]:
            raise ValueError('expected CSV header "p,a_p"')
        for rec in reader:
            p, a_p = int(rec["p"]), int(rec["a_p"])
            alpha, beta = _normalized_pair(a_p, p, weight)
            rows.append(EigenvalueRow(p, a_p, alpha, beta))
    return EigenvalueTable(weight, tuple(rows))


def write_eigenvalue_csv(path, table: EigenvalueTable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "a_p"])
        for row in table.rows:
            writer.writerow([row.p, row.a_p])


def write_theta_csv(path, data: Mapping[int, tuple[complex, complex]]) -> None:
    """Dump synthetic data as p,theta rows (theta = arg of the first parameter)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "theta"])
        for p in sorted(data):
            writer.writerow([p, repr(math.atan2(data[p][0].imag, data[p][0].real))])


def read_theta_csv(path) -> dict[int, tuple[complex, complex]]:
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["p", "theta"]:
            raise ValueError('expected CSV header "p,theta"')
        for rec in reader:
            t = float(rec["theta"])
            a = complex(math.cos(t), math.sin(t))
            out[int(rec["p"])] = (a, a.conjugate())
    return out


def write_sweep_csv(path, sweep: EulerProductSweep) -> None:
    """Plot-ready rows s,re,im for a sweep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "re", "im"])
        for s, v in zip(sweep.s_grid, sweep.values):
            writer.writerow([repr(s), repr(v.real), repr(v.imag)])
