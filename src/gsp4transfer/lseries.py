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

A partial product runs over blocks of at most ``SWEEP_BLOCK`` places, each
symbol's rows copied into one contiguous (parameter, place) array, so its
work arrays do not grow with X.  A block that is a run of a symbol's places,
as every block over sieved primes is, reads its rows as a slice; the primes
up to X are sieved once and shared by every call at that X.  The exact
local pole check runs only at places where a bound on |z|, one product per
place, reaches 1/2.

Synthetic local data is drawn from the Sato-Tate angle density
(2/pi) sin^2(theta), the image of Haar measure on SU(2), in closed form:
cos(theta) is the x-coordinate of a uniform point of the unit disc.

A weight-12 eigenvalue table provides a real-world fixture.  Its exact
coefficients tau(n) come from the square of a sparse series, one
scatter-add, and six more products by that series on int64 residues modulo
two primes below 2^47, lifted by the Chinese remainder theorem; the lift is
proven exact for n < 2^15 and refuses larger n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .isobaric import (
    CuspidalSymbol,
    IsobaricRep,
    SymbolRegistry,
    isobaric,
    rows_at,
    rs_factorization,
)
from .satake import check_places, place_array, prime_sieve

DEFAULT_GRID = (1.30, 1.20, 1.12, 1.06, 1.03)
DEFAULT_MIN_PLACE = 100  # fit window floor: drop places q <= this
DEFAULT_X = 100_000
# Largest sieve bound.  With a blocked sweep, `poles --mode both` peaks at about
# 73 MB at X = 10^6, 105 MB at 3 x 10^6 and 245 MB at this bound (Python 3.11,
# numpy 2.4, Linux); the symbols' data and the sieve grow with X, the sweep's
# work arrays do not.
MAX_X = 10**7

_POLE_EPS = 1e-12
SWEEP_BLOCK = 2**15  # places per block of a partial product


class LocalPole(ArithmeticError):
    """A local factor has a pole at the requested s."""


class EstimationError(ArithmeticError):
    """The slope fit received nonfinite values."""


@lru_cache(maxsize=4)
def _prime_array(x: int) -> np.ndarray:
    """Rational primes <= x as a read-only int64 array, from
    ``satake.prime_sieve``; x above ``MAX_X`` is refused, and a refusal is not
    cached.  Memoised, so that the synthetic data and the sweep of one X share
    one sieve; internal callers pass it to symbols as it is."""
    if x > MAX_X:
        raise ValueError(f"X = {x} is above the largest supported bound {MAX_X}")
    primes = np.flatnonzero(prime_sieve(max(x, 0) + 1)).astype(np.int64, copy=False)
    primes.flags.writeable = False
    return primes


def primes_up_to(x: int) -> list[int]:
    """Rational primes <= x by sieve; x above ``MAX_X`` is refused."""
    return _prime_array(x).tolist()


# ---------------------------------------------------------------------------
# Partial products
# ---------------------------------------------------------------------------


def _sweep_values(r1: IsobaricRep, r2: IsobaricRep, qs: np.ndarray, s_values) -> np.ndarray:
    """Partial product over the places ``qs`` at each s, real or complex.

    The places are taken in blocks of at most ``SWEEP_BLOCK``, so that the
    work arrays have a fixed size whatever X is.  Each block gives a real
    total and a unit phase (see ``_sweep_block``); the totals add and the
    phases multiply.  The value is exp(-(total + i arg phase)), so it
    overflows to inf and underflows to 0 as a sum of logs does, never to
    NaN.  A block looks up every symbol's rows before its first factor, so
    missing local data is reported before a pole in the same block.

    Accuracy: numpy's complex abs rounds |w| near 1 low by about a third of
    an ulp on average, so |value| can read high by up to about 5e-17 per
    place and factor (1e-12 relative for a 2 + 2 pairing at X = 10^5)."""
    s = np.asarray(s_values, dtype=complex)
    factors = [(float(f.shift), f.sigma, f.tau) for f in rs_factorization(r1, r2)]
    symbols = {id(sym): sym for _, sigma, tau in factors for sym in (sigma, tau)}  # each recurs across factors
    total = np.zeros(len(s))
    phase = np.ones(len(s), dtype=complex)
    for start in range(0, len(qs), SWEEP_BLOCK):
        block = qs[start:start + SWEEP_BLOCK]
        # each symbol's rows as one contiguous (parameter, place) array
        local = {key: np.ascontiguousarray(sym.params[rows_at(sym, block)].T) for key, sym in symbols.items()}
        block_total, block_phase = _sweep_block(s, factors, local, block)
        total += block_total
        phase *= block_phase
    return np.exp(-(total + 1j * np.angle(phase)))


def _sweep_block(s: np.ndarray, factors, local: dict, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sum of log|w| and the product of w / |w| over one block of places,
    at each s, w running over every factor's local values.

    Per Rankin-Selberg factor, z = a_i b_j q^-(s + shift) is one broadcast
    over (s, parameter pair, place), on the (parameter, place) arrays of
    ``local``, keyed by ``id`` of the symbol.  The factor's local value at q
    is 1 / w, w the product of 1 - z over its k parameter pairs, taken by
    k - 1 multiplies.  Each w is split once into modulus and phase: log|w|,
    one real log per place, and w / |w|.

    A pole needs |1 - z| < 1e-12, so |z| near 1.  The bound max|a| max|b|
    q^-(min Re s + shift) on |z| at a place is one product per place, max|a|
    taken once per symbol; the exact check runs only on the places where the
    bound reaches 1/2, and rounding moves neither the bound nor |z| by
    anything near that margin.
    Range: the pole check keeps every |1 - z| >= 1e-12 and k <= 16, so w
    cannot underflow; it overflows only where |z| passes 2^(1024 / k), and a
    factor where it does sums the logs of its k terms instead."""
    logq = np.log(np.asarray(qs, dtype=float))
    total = np.zeros(len(s))
    phase = np.ones(len(s), dtype=complex)
    r = np.empty((len(s), len(qs)))  # |w|, then log|w|, for every factor
    powers = {}  # q^-(s + shift) and the bound on its modulus, per distinct shift
    largest = {key: np.abs(x).max(axis=0) for key, x in local.items()}  # max |parameter| per place
    for shift, sigma, tau in factors:
        if shift not in powers:
            powers[shift] = (np.exp(-np.multiply.outer(s + shift, logq)),
                             np.exp(-(s.real.min() + shift) * logq))
        power, bound = powers[shift]
        a, b = local[id(sigma)], local[id(tau)]
        # (pair, place), so that each pair's slice of z is a contiguous row per s
        lam = (a[:, None, :] * b[None, :, :]).reshape(len(a) * len(b), len(qs))
        z = lam * power[:, None, :]
        near = largest[id(sigma)] * largest[id(tau)] * bound >= 0.5
        if near.any():
            # At the places near, the pole check |1 - z| < eps runs only when
            # some Re z > t = fl(1 - 2 eps), since it cannot fire at any other
            # z.  The real part of 1 - z is fl(1 - Re z), and abs is a hypot, at
            # least as large as either part (the exact hypot is, and a faithful
            # rounding cannot fall below a float under it).  If Re z <= t, then
            # in exact arithmetic 1 - Re z >= 1 - t >= 2 eps - 2^-54 >= eps, and
            # rounding is monotone, so fl(1 - Re z) >= eps as well.
            # t = fl(1 - eps) would not do: 1 - fl(1 - 1e-12) is below 1e-12, so
            # z = fl(1 - 1e-12) is a pole that the filter Re z > fl(1 - 1e-12)
            # misses.
            zn = z[:, :, near]
            if (zn.real > 1.0 - 2 * _POLE_EPS).any():
                pole = (np.abs(1.0 - zn) < _POLE_EPS).any(axis=(1, 2))
                if pole.any():
                    raise LocalPole(f"local factor pole at s={s[pole][0]}")
        # 1 - z in z's buffer, the pole check done with it
        np.subtract(1.0, z, out=z)
        w = z[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
            for j in range(1, z.shape[1]):
                w *= z[:, j]
        np.abs(w, out=r)
        if np.isfinite(r).all():
            w /= r
            np.log(r, out=r)
        else:  # the product left the float range: sum the logs of its factors
            logw = np.log1p(-(lam * power[:, None, :])).sum(axis=1)
            np.exp(1j * logw.imag, out=w)
            r[...] = logw.real
        phase *= w.prod(axis=1)
        total += r.sum(axis=1)
        del lam, z, w  # so that the next factor's z is not allocated beside this one
    return total, phase


def partial_L(
    r1: IsobaricRep,
    r2: IsobaricRep,
    X: int,
    s: complex,
    *,
    places: Iterable[int] | None = None,
) -> complex:
    """Truncated Rankin-Selberg product over the places q <= X.

    An explicit set of places (ints) overrides the bound; the empty set
    gives the empty product 1.  Local data must be present at every
    requested place.
    """
    if places is None:
        qs = _prime_array(X)
    else:
        qs = np.unique(place_array(list(places), "partial_L"))
        check_places(qs)
    return complex(_sweep_values(r1, r2, qs, [s])[0])


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


def _log_truncated_zeta(qs: np.ndarray, grid: Sequence[float]) -> np.ndarray:
    """log of prod (1 - q^-s)^-1 over the places ``qs``, at each real s of the grid."""
    return -np.log1p(-np.exp(-np.multiply.outer(grid, np.log(qs.astype(float))))).sum(axis=1)


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
    primes = _prime_array(X)
    window = primes[primes > min_place]
    if not len(window):
        raise ValueError(f"no places in window ({min_place}, {X}]")
    values = _sweep_values(r1, r2, window, grid)
    y = np.log(np.abs(values))
    x = _log_truncated_zeta(window, grid)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
        raise EstimationError("nonfinite values in slope fit")
    slope = float(np.polyfit(x, y, 1)[0])
    sweep = EulerProductSweep(grid, tuple(complex(v) for v in values), X)
    return slope, sweep


# ---------------------------------------------------------------------------
# Synthetic local data
# ---------------------------------------------------------------------------


def _sato_tate_params(seed: int, n: int) -> np.ndarray:
    """(n, 2) synthetic tempered GL(2) parameters {e^{i theta_k}, e^{-i theta_k}},
    theta_k drawn from the Sato-Tate density (2/pi) sin^2 on [0, pi].

    Exact in closed form: the x-coordinate c = sqrt(u0) cos(2 pi u1) of a
    uniform point of the unit disc has the semicircle density
    (2/pi) sqrt(1 - c^2), the law of half the trace of a Haar-random element
    of SU(2); with c = cos theta it is (2/pi) sin^2 theta.  Since
    |c| <= sqrt(u0) < 1 the square root of (1 - c)(1 + c) never sees a
    negative number.  Row k uses draws 2k and 2k + 1, so the data at a prime
    does not depend on how many rows follow.  The stream is a deterministic
    function of the seed; the generator is PCG64, a named 64-bit generator
    with published reference output."""
    u = np.random.Generator(np.random.PCG64(seed)).random((n, 2))
    c = np.sqrt(u[:, 0]) * np.cos(2 * math.pi * u[:, 1])
    out = np.empty((n, 2), dtype=complex)
    parts = out.view(float)  # columns re a, im a, re conj(a), im conj(a)
    parts[:, 0] = parts[:, 2] = c
    np.sqrt((1 - c) * (1 + c), out=parts[:, 1])
    np.negative(parts[:, 1], out=parts[:, 3])
    return out


def sample_sato_tate(seed: int, primes: Sequence[int]) -> dict[int, tuple[complex, complex]]:
    """``_sato_tate_params`` keyed by prime: p -> (e^{i theta_p}, e^{-i theta_p})."""
    params = _sato_tate_params(seed, len(primes)).tolist()
    return {int(p): (a, b) for p, (a, b) in zip(primes, params)}


def sato_tate_symbol(registry: SymbolRegistry, sid: str, seed: int, primes: Sequence[int]):
    """Register a self-dual degree-2 symbol with trivial central character
    carrying synthetic local data."""
    return registry.create(sid, 2, self_dual=True, qs=primes, params=_sato_tate_params(seed, len(primes)))


def stream_seed(seed: int, key: str) -> int:
    """Seed of the synthetic stream named ``key`` under the run seed (FNV-1a mix)."""
    h = 1469598103934665603
    for ch in key:
        h = (h ^ ord(ch)) * 1099511628211 % (2**63)
    return (seed * 1_000_003 + h) % (2**63)


def synthetic_reps(descriptors, seed: int, X: int) -> list[IsobaricRep]:
    """Transfers of lifted descriptors, rebuilt over synthetic angle data.

    Every degree-2 constituent becomes a plain ``CuspidalSymbol`` with data
    at all primes <= X, built once per id and attached to no registry.  The
    identification pattern of the descriptors is preserved: each dual pair
    of symbol ids shares one stream seeded by (seed, smaller id), the larger
    id receives its entrywise inverses, and self-dual symbols get plain
    inverse-closed angle data.  Non-self-dual pairs additionally carry a
    place-varying unimodular central twist, so that a symbol is locally
    equivalent to its dual only when it is declared self-dual.
    """
    primes = _prime_array(X)
    streams: dict[str, np.ndarray] = {}
    symbols: dict[str, CuspidalSymbol] = {}
    for desc in descriptors:
        if not desc.from_gso:
            raise ValueError("numeric estimates need degree-2 constituents")
        for sym in desc.pair:
            if sym.id in symbols:
                continue
            key = min(sym.id, sym.dual_id)
            if key not in streams:
                params = _sato_tate_params(stream_seed(seed, key + ":angles"), len(primes))
                if not sym.is_self_dual:
                    # angle and twist streams must be independent
                    rng = np.random.Generator(np.random.PCG64(stream_seed(seed, key + ":twist")))
                    params = np.exp(2j * math.pi * rng.random(len(primes)))[:, None] * params
                streams[key] = params
            params = streams[key] if sym.id == key else 1 / streams[key]
            symbols[sym.id] = CuspidalSymbol(sym.id, 2, sym.dual_id, sym.central_char_id, primes, params)
    return [isobaric([symbols[s.id] for s in desc.pair]) for desc in descriptors]


# ---------------------------------------------------------------------------
# Weight-12 eigenvalue fixture
# ---------------------------------------------------------------------------

DELTA_WEIGHT = 12  # weight of the cusp form x prod (1 - x^m)^24


@dataclass(frozen=True)
class EigenvalueRow:
    p: int
    a_p: int
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class EigenvalueTable:
    """Hecke data of the weight-``DELTA_WEIGHT`` cusp form, with normalized
    Satake parameters."""

    rows: tuple[EigenvalueRow, ...]


# The two largest primes below 2^47; their product M, about 2^94, is the range of the lift.
_TAU_MODULI = (140737488355213, 140737488355201)


@lru_cache(maxsize=4)
def _discriminant_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of prod_{m>=1} (1 - x^m)^24 up to x^(n-1), exact integers,
    for n < 2^15; larger n is refused.

    The cube of the product is the sparse triangular-number series
    T = sum_k (-1)^k (2k+1) x^{k(k+1)/2} of K terms, and the 24th power is
    T^8, built without any dense-times-dense convolution: T^2 by one int64
    scatter-add of the K^2 pair products (|coefficients| at most
    (sum |2k+1|)^2 = K^4 <= 2^32), reduced modulo the two primes
    ``_TAU_MODULI``, then six sparse products by T on those residues, through
    one reused product buffer.  A product adds its K shifted copies
    unreduced and reduces once.  The K coefficients have |2k+1| summing to
    K^2, and K <= 2^8 for n < 2^15; every product starts from residues, so
    the unreduced sums are at most K^2 (m - 1) < 2^16 2^47 = 2^63 and never
    wrap.  The residues are lifted to signed integers by the Chinese
    remainder theorem, which is exact while |tau(m)| < M / 2 for m <= n; by
    Deligne, |tau(m)| <= d(m) m^(11/2) <= 2 m^6, and M, about 2^94, is above
    4 (2 n^6) for n < 2^15.
    """
    if n >= 2**15:
        raise OverflowError(f"coefficients up to x^{n - 1} may exceed the lift range")
    modulus = math.prod(_TAU_MODULI)
    sparse = []
    k = 0
    while k * (k + 1) // 2 < n:
        sparse.append(((-1) ** k * (2 * k + 1), k * (k + 1) // 2))
        k += 1
    coefs, exps = np.array(sparse, dtype=np.int64).T
    exponent = np.add.outer(exps, exps)  # of each pair product
    kept = exponent < n
    square = np.zeros(n, dtype=np.int64)
    np.add.at(square, exponent[kept], np.multiply.outer(coefs, coefs)[kept])
    moduli = np.array(_TAU_MODULI, dtype=np.int64)[:, None]
    cur = np.remainder(square, moduli)  # T^2, one row of residues per modulus
    new = np.empty_like(cur)
    term = np.empty_like(cur)  # coef times the shifted copy, reused by every term
    for _ in range(6):
        new.fill(0)
        for coef, e in sparse:
            np.multiply(cur[:, : n - e], coef, out=term[:, : n - e])
            new[:, e:] += term[:, : n - e]
        np.remainder(new, moduli, out=cur)
    basis = np.array([(modulus // p) * pow(modulus // p, -1, p) for p in _TAU_MODULI], dtype=object)
    lifted = basis @ cur.astype(object) % modulus
    return tuple(np.where(2 * lifted > modulus, lifted - modulus, lifted).tolist())


def _normalized_pair(a_p: int, p: int) -> tuple[complex, complex]:
    t = a_p / p ** ((DELTA_WEIGHT - 1) / 2)
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
        alpha, beta = _normalized_pair(a_p, p)
        rows.append(EigenvalueRow(p, a_p, alpha, beta))
    return EigenvalueTable(tuple(rows))


def eigen_symbol(registry: SymbolRegistry, sid: str, table: EigenvalueTable):
    """Register a self-dual degree-2 symbol carrying the table's parameters."""
    return registry.create(sid, 2, central_char="1", self_dual=True,
                           qs=[r.p for r in table.rows], params=[(r.alpha, r.beta) for r in table.rows])


# ---------------------------------------------------------------------------
# Sweep CSV
# ---------------------------------------------------------------------------


def sweep_csv_text(rows: Iterable[tuple[float, float, float]]) -> str:
    """Plot-ready CSV text: the header s,re,im, then one line per (s, re, im)."""
    return "".join(["s,re,im\n"] + [f"{s!r},{re!r},{im!r}\n" for s, re, im in rows])


def write_sweep_csv(path, sweep: EulerProductSweep) -> None:
    """``sweep_csv_text`` of a sweep, written as ``poles --format csv --out`` writes it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sweep_csv_text((s, v.real, v.imag) for s, v in zip(sweep.s_grid, sweep.values)))
