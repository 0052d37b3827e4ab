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

A partial product takes two isobaric sums, as the pole calculus does.  It
is exp(-sum of log(1 - z)), z running over the root pairs a_i b_j q^-s of
every place.  It runs over blocks of at most ``SWEEP_BLOCK`` places, so its
work arrays do not grow with X.  Each block's parameters are written once
into a single C-order (parameter, place) staging array; the staging array
and the block's other work arrays are views of one flat array, allocated
once per call and reused by every block.  The rows of a
window that is a run of a symbol's places, as every window over sieved
primes is, are a slice, read by each block as a view; the primes up to X
are read once from the table that also checks the symbols' places
(``satake.place_table``) and shared by every call at that X.  A bound on
|z|, one product per place, splits each block once.  Where it is at most
1/32 the logs are summed as the series
log L_q = sum_m tr(A_q^m) tr(B_q^m) q^-ms / m
of the two sums' Satake parameters A_q and B_q, by power sums, to one order
per block and a tail of at most 2^-60 per place; every place above 100 at
X = 10^5 and s in the default grid is summed so, within about 1e-13 in
log|L| of a per-term log1p summed exactly.  The power sums are formed one
order at a time from one running (parameter, place) array of powers, so no
table over all orders is held.  Elsewhere the sum takes one log1p per root
pair, with the exact local pole check on every z.

Synthetic local data is drawn from the Sato-Tate angle density
(2/pi) sin^2(theta), the image of Haar measure on SU(2), in closed form:
cos(theta) is the x-coordinate of a uniform point of the unit disc; the
central twist of a non-self-dual pair is multiplied into its angle stream
in place.

A weight-12 eigenvalue table provides a real-world fixture.  Its exact
coefficients tau(n) come from the square of a sparse series, one
scatter-add, and six more products by that series on int64 residues modulo
two primes below 2^47, kept as (n, 2) columns, so that each shifted term of
a product is one contiguous slice; the residues at the primes alone are
lifted, by Garner's formula on Python ints.  The lift is proven exact for
n < 2^15 and refuses larger n.
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
from .satake import place_table

DEFAULT_GRID = (1.30, 1.20, 1.12, 1.06, 1.03)
DEFAULT_MIN_PLACE = 100  # fit window floor: drop places q <= this
DEFAULT_X = 100_000  # `poles --X` default
# Largest sieve bound.  With a blocked sweep, `poles --mode both` peaks at about
# 53 MB at X = 10^6, 81 MB at 3 x 10^6 and 174 MB at this bound (Python 3.11,
# numpy 2.4, Linux); the symbols' data and the sieve grow with X, the sweep's
# work arrays do not.
MAX_X = 10**7

_POLE_EPS = 1e-12
SWEEP_BLOCK = 2**11  # places per block of a partial product
_SERIES_CUT = 2.0**-5  # places whose every |z| is at most this take power sums, 12 orders at 16 pairs
_SERIES_TAIL = 2.0**-60  # truncation error of the power sums allowed per place


class LocalPole(ArithmeticError):
    """A local factor has a pole at the requested s."""


class EstimationError(ArithmeticError):
    """The slope fit received nonfinite values."""


@lru_cache(maxsize=4)
def _prime_array(x: int) -> np.ndarray:
    """Rational primes <= x as a read-only int64 array that owns its memory,
    read from ``satake.place_table`` of the bit length of x, the table that
    ``check_places`` looks the same primes up in; x above ``MAX_X`` is
    refused, and a refusal is not cached.  Memoised, so that the synthetic
    data and the sweep of one X share one array; a symbol keeps the array as
    it is (see ``CuspidalSymbol``), so every synthetic symbol at one X shares
    it."""
    if x > MAX_X:
        raise ValueError(f"X = {x} is above the largest supported bound {MAX_X}")
    x = max(x, 0)
    table = place_table(1 << x.bit_length())
    primes = np.flatnonzero(table[: x + 1] == 1).astype(np.int64)  # a copy that owns its memory
    primes.flags.writeable = False
    return primes


def primes_up_to(x: int) -> list[int]:
    """Rational primes <= x by sieve; x above ``MAX_X`` is refused."""
    return _prime_array(x).tolist()


# ---------------------------------------------------------------------------
# Partial products
# ---------------------------------------------------------------------------


def _sweep_values(r1: IsobaricRep, r2: IsobaricRep, qs: np.ndarray, s_values) -> np.ndarray:
    """Partial product of two isobaric sums over the places ``qs`` at each s,
    real or complex.

    The places are taken in blocks of at most ``SWEEP_BLOCK``, so that the
    work arrays have a fixed size whatever X is.  Each block gives the
    complex sum of log(1 - z) over its places and root pairs (see
    ``_sweep_block``), and the sums add.  The value is exp(-total), so it
    overflows to inf and underflows to 0 as a sum of logs does, never to
    NaN.  Every symbol's rows are looked up, at every place, before the
    first block, so missing local data is reported before any pole.  The
    blocks' work arrays, the staging array of their parameters among them,
    are views of one flat array, allocated once per call for the widest
    block and the highest order a block can take (``_block_bytes``) and
    reused by every block: one allocation per call (2.4 MB for a 4 + 4
    pairing at X = 10^5 and the default grid), not several of a few hundred
    KB per block, sizes that glibc maps afresh or trims back after use, so
    that each block would fault its work arrays in page by page.

    Accuracy: each place is summed by power sums or by one log1p per root
    pair, never by both.  At X = 10^5 and s in the default grid every place
    above 100 is summed by power sums, and log|value| of a 2 + 2 pairing is
    off by about 10^-13 at most (see ``_series_logs``).  A place summed by
    log1p adds about 10^-16 per root pair to log|value|."""
    s = np.asarray(s_values, dtype=complex)
    factors = rs_factorization(r1, r2)
    symbols = {id(sym): sym for pair in factors for sym in pair}  # each recurs across factors
    sides = [[id(sym) for sym in rep.constituents] for rep in (r1, r2)]
    rows = {key: rows_at(sym, qs) for key, sym in symbols.items()}  # every place, before the first block
    height = sum(symbols[key].degree for side in sides for key in side)
    split = sum(symbols[key].degree for key in sides[0])
    order = _series_order(split * (height - split), _SERIES_CUT)  # the most any block takes
    work = np.empty(_block_bytes(height, min(len(qs), SWEEP_BLOCK), order, s), dtype=np.uint8)
    total = np.zeros(len(s), dtype=complex)
    for start in range(0, len(qs), SWEEP_BLOCK):
        block = slice(start, start + SWEEP_BLOCK)
        local = {}  # each symbol's (place, parameter) rows
        for key, sym in symbols.items():
            # a slice of the symbol's rows is a view; an array of rows is gathered a block at a time
            index = rows[key]
            local[key] = sym.params[index][block] if isinstance(index, slice) else sym.params[index[block]]
        total += _sweep_block(s, factors, sides, local, qs[block], work)
    return np.exp(-total)


def _block_bytes(rows: int, places: int, order: int, s: np.ndarray) -> int:
    """Bytes of the work arrays that ``_sweep_block`` and ``_series_logs``
    take (``_take``) for a block of ``places`` places, ``rows`` parameters
    and power sums to ``order``: the staged parameters, their moduli and
    the powers u^m, (rows, place) each; the traces, (2, order, place); and
    the powers y^m, (order, s, place), real when every s is."""
    y = 16 if s.imag.any() else 8
    return places * (rows * (16 + 8 + 16) + order * (2 * 16 + len(s) * y)) + 5 * 64


def _take(work: np.ndarray, shape: tuple, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A C-order array of ``shape`` and ``dtype`` over the front of the flat
    uint8 array ``work``, its values as they were, and the rest of ``work``
    from the next multiple of 64 bytes."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    return work[:size].view(dtype).reshape(shape), work[-(-size // 64) * 64 :]


def _sweep_block(s: np.ndarray, factors, sides, local: dict, qs: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The sum of log(1 - z) over one block of places, at each s, z running
    over every factor's a_i b_j q^-s; its imaginary part is a sum of
    arguments of the 1 - z.

    ``local`` holds each symbol's (place, parameter) rows, keyed by ``id``
    of the symbol, and ``sides`` the keys of the terms of the two isobaric
    sums.  Each side's parameters are written once into one C-order
    (parameter, place) array, the first side's rows first; it, the moduli
    and the work arrays of ``_series_logs`` are taken from the flat array
    ``work`` in turn (see ``_take``).  Their largest moduli L1 and L2 per
    place give the bound L1 L2 q^-(min Re s) on every |z|, the largest of
    the factors' bounds max|a| max|b| q^-(min Re s).  It splits the
    block once: the places where the bound is at most ``_SERIES_CUT`` are
    summed by power sums (``_series_logs``), the others by one log1p per
    root pair (``_product_logs``).  A bound that is NaN, an overflowing
    factor times an underflowing one, is not at most the cut, so its place
    takes the log1p sum."""
    logq = np.log(np.asarray(qs, dtype=float))
    terms = [local[key].T for side in sides for key in side]
    split = sum(len(x) for x in terms[: len(sides[0])])  # rows of the first side
    params, work = _take(work, (sum(len(x) for x in terms), len(qs)), complex)
    row = 0
    for x in terms:
        params[row : row + len(x)] = x
        row += len(x)
    moduli, work = _take(work, params.shape, float)
    np.abs(params, out=moduli)
    lead = (moduli[:split].max(axis=0), moduli[split:].max(axis=0))
    bound = lead[0] * lead[1] * np.exp(-s.real.min() * logq)
    far = bound <= _SERIES_CUT
    if far.all():
        return _series_logs(s, params, split, lead, logq, bound, work)
    near = ~far
    # numpy's sums follow the layout: this gather comes out in F order, as a gather of a
    # C-order copy does, and a contiguous copy of it changes the sums in the last bit
    total = _product_logs(s, factors, {key: x.T[:, near] for key, x in local.items()}, logq[near])
    if far.any():
        total += _series_logs(s, params[:, far], split, (lead[0][far], lead[1][far]), logq[far], bound[far],
                              work)
    return total


def _series_order(pairs: int, beta: float) -> int:
    """The least order M to which the power sums run at places whose bounds
    on |z| are at most ``beta``, itself at most ``_SERIES_CUT``.

    Summed to order M, a place of bound beta is left with a tail of at most
    pairs beta^(M+1) / ((M+1)(1 - beta)) (see ``_series_logs``); M is the
    least order that takes it to ``_SERIES_TAIL``.  The tail grows with
    beta, so the order of a block's largest bound covers all its places.
    With 16 pairs, M is 12 at the cut and 8 at beta = 101^-1.03."""
    order = 0
    while pairs * beta ** (order + 1) / ((order + 1) * (1 - beta)) > _SERIES_TAIL:
        order += 1
    return order


def _series_logs(s: np.ndarray, params: np.ndarray, split: int, lead, logq: np.ndarray,
                 bound: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The sum of log(1 - z) over places where every |z| is at most the
    place's ``bound``, itself at most ``_SERIES_CUT``, by power sums.

    ``params`` holds the parameters a_i of the first isobaric sum
    in its first ``split`` rows and the b_j of the second in the others;
    ``lead`` holds the largest moduli L1 and L2 of the two, per place.  For
    |z| < 1, log(1 - z) = -sum_m z^m / m, and the root pairs at a place are
    the a_i b_j x, x = q^-s.  Since tr((A (x) B)^m) = tr(A^m) tr(B^m),
    sum_ij (a_i b_j)^m = p_m(a) p_m(b), p_m(a) = sum_i a_i^m.  With the
    parameters scaled to modulus at most 1, a_i = L1 u_i and b_j = L2 v_j,
    and y = L1 L2 x, the place adds -sum_m p_m(u) p_m(v) y^m / m.  Every
    place runs to the order M of the largest bound (``_series_order``).  One
    running (parameter, place) array holds the powers u^m and v^m of one
    order at a time, and each order's p_m(u) and p_m(v) are summed from it
    into two (order, place) arrays, so no (order, parameter, place) table is
    held; the powers y^m are an (order, s, place) table, and one matrix
    product per order sums over the places.  When every s is real, as on
    the pole grid, y is a real exp and the product a real one on the
    (re, im) pairs of the coefficients, which saves about a tenth of a
    ``poles`` pass over complex y at real s.  The running powers from u^2
    on, the traces and the table of y^m are taken from the flat array
    ``work`` (see ``_take``), of at least ``_block_bytes``.
    Range: a symbol's parameters have finite inverses, so 1 / L1 and
    1 / L2 are finite.  |u_i|, |v_j| <= 1,
    |p_m(u) p_m(v)| <= K for the K pairs and |y| <= beta, the place's
    bound, so nothing overflows, and what underflows is below 2^-1022 in
    modulus; no 1 - z is formed, and every |1 - z| is at least 31/32, so
    no pole check is needed.
    Truncation: |p_m(u) p_m(v) y^m| <= K beta^m, so the orders past M add
    up to at most K beta^(M+1) / ((M+1)(1 - beta)) at a place, at most 2^-60.
    The computed bound is within a few ulps of the exact one wherever the
    powers q^-(min Re s) are normal floats, which moves that tail by a
    relative 10^-13 at most.
    Rounding: each term p_m(u) p_m(v) y^m / m is within about
    (3m + K) 2^-53 K beta^m of its exact value, so a place is within about
    (3M + K) 2^-53 K beta / (1 - beta), 6e-16 at K = 16, M = 8 and
    beta = 0.0086, the bound at q = 101 and s = 1.03, and less as beta
    falls."""
    order = _series_order(split * (len(params) - split), float(bound.max()))
    if not order:
        return np.zeros(len(s), dtype=complex)
    u = params  # scaled in place
    u[:split] *= (1 / lead[0]).astype(complex)
    u[split:] *= (1 / lead[1]).astype(complex)
    # in C order, as a gather of places may leave it otherwise: numpy sums a column
    # of parameters in another order when the column is contiguous
    u = np.ascontiguousarray(u)
    real = not s.imag.any()
    y = np.exp(-np.multiply.outer(s.real if real else s, logq))
    y *= lead[0] * lead[1]
    traces, work = _take(work, (2, order, u.shape[1]), complex)  # p_m(u) and p_m(v), (order, place) each
    ypow, work = _take(work, (order,) + y.shape, y.dtype)  # (order, s, place)
    power, ypow[0] = u, y  # the powers u^m, one order at a time, u^2 on in a work array
    for k in range(order):
        if k:
            power = np.multiply(power, u, out=power if k > 1 else _take(work, u.shape, complex)[0])
            np.multiply(ypow[k - 1], y, out=ypow[k])
        np.sum(power[:split], axis=0, out=traces[0, k])
        np.sum(power[split:], axis=0, out=traces[1, k])
    c = traces[0]
    c *= traces[1]  # all orders at once: numpy rounds a one-element in-place complex multiply apart
    c *= (1 / np.arange(1, order + 1))[:, None]
    if real:  # a real matrix product on the (place, re and im) pairs of c
        sums = (ypow @ c.view(float).reshape(c.shape + (2,))).sum(axis=0)
        return -(sums[:, 0] + 1j * sums[:, 1])
    return -(ypow @ c[:, :, None]).sum(axis=(0, 2))


def _product_logs(s: np.ndarray, factors, local: dict, logq: np.ndarray) -> np.ndarray:
    """The sum of log(1 - z) over places, one log1p per root pair.

    Per Rankin-Selberg factor, z = a_i b_j q^-s is one broadcast
    over (s, parameter pair, place), on the (parameter, place) arrays of
    ``local``, keyed by ``id`` of the symbol.  The exact pole check
    |1 - z| < 1e-12 runs on every z before the factor's logs are taken.  A
    place whose product of the 1 - z would leave the float range has
    logs well inside it, so no product is formed."""
    total = np.zeros(len(s), dtype=complex)
    x = np.exp(-np.multiply.outer(s, logq))[:, None, :]  # q^-s
    for sigma, tau in factors:
        a, b = local[id(sigma)], local[id(tau)]
        lam = (a[:, None, :] * b[None, :, :]).reshape(len(a) * len(b), len(logq))
        z = lam * x
        pole = (np.abs(1.0 - z) < _POLE_EPS).any(axis=(1, 2))
        if pole.any():
            raise LocalPole(f"local factor pole at s={s[pole][0]}")
        total += np.log1p(-z).sum(axis=(1, 2))
    return total


def partial_L(r1: IsobaricRep, r2: IsobaricRep, X: int, s: complex) -> complex:
    """Truncated Rankin-Selberg product of two isobaric sums over the primes
    q <= X; none gives the empty product 1.  Local data must be
    present at every such prime."""
    return complex(_sweep_values(r1, r2, _prime_array(X), [s])[0])


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
    """log of prod (1 - q^-s)^-1 over the places ``qs``, at each real s of the grid.

    One (s, place) array, worked in place: at X = 10^7 each such array is 27 MB."""
    z = np.multiply.outer(grid, np.log(qs.astype(float)))
    for step in (np.negative, np.exp, np.negative, np.log1p):  # log(1 - q^-s)
        step(z, out=z)
    return -z.sum(axis=1)


def _check_grid(grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(sorted((float(s) for s in grid), reverse=True))
    if len(grid) < 5:
        raise ValueError("need at least 5 grid points")
    if not all(1.0 < s <= 1.5 for s in grid):  # NaN too
        raise ValueError("grid must lie in (1, 1.5]")
    if len(set(grid)) != len(grid):
        raise ValueError("grid points must be distinct")
    return grid


def estimate_pole_order(r1: IsobaricRep, r2: IsobaricRep, X: int) -> float:
    """Estimate ord_{s=1} of the pairing from truncated products.

    Least-squares slope of log|partial L| against the log of the truncated
    zeta over the same window of places (see module docstring for why the
    reference is the matched truncated zeta rather than log(1/(s - 1))),
    at the default grid.  The window keeps the primes q with
    ``DEFAULT_MIN_PLACE`` < q <= X.
    """
    return estimate_with_sweep(r1, r2, X)[0]


def estimate_with_sweep(
    r1: IsobaricRep,
    r2: IsobaricRep,
    X: int,
    grid: Sequence[float] | None = None,
    *,
    min_place: int = DEFAULT_MIN_PLACE,
) -> tuple[float, EulerProductSweep]:
    """Pole-order estimate together with the underlying sweep values."""
    grid = _check_grid(DEFAULT_GRID if grid is None else grid)
    primes = _prime_array(X)
    window = primes[np.searchsorted(primes, min_place, side="right"):]
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
                    twist = np.exp(2j * math.pi * rng.random(len(primes)))
                    # in place, twist times angles in that operand order: numpy's complex
                    # multiply may fuse, and angles times twist can differ in the last bit
                    np.multiply(twist[:, None], params, out=params)
                streams[key] = params
            params = streams[key] if sym.id == key else 1 / streams[key]
            params.flags.writeable = False  # a new array, which the symbol keeps
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


@dataclass(frozen=True, eq=False)
class EigenvalueTable:
    """Hecke data of the weight-``DELTA_WEIGHT`` cusp form, with normalized
    Satake parameters: one row per prime, and the same primes and
    parameters as the arrays a symbol takes, ``qs`` (int64) and ``params``
    ((P, 2) complex)."""

    rows: tuple[EigenvalueRow, ...]
    qs: np.ndarray
    params: np.ndarray


# The two largest primes below 2^47; their product M, about 2^94, is the range of the lift.
_TAU_MODULI = (140737488355213, 140737488355201)


@lru_cache(maxsize=4)
def _discriminant_residues(n: int) -> np.ndarray:
    """Coefficients of prod_{m>=1} (1 - x^m)^24 up to x^(n-1), as residues
    modulo the two primes ``_TAU_MODULI``: a read-only (2, n) int64 array,
    for n < 2^15; larger n is refused.

    The cube of the product is the sparse triangular-number series
    T = sum_k (-1)^k (2k+1) x^{k(k+1)/2} of K terms, and the 24th power is
    T^8, built without any dense-times-dense convolution: T^2 by one int64
    scatter-add of the K^2 pair products (|coefficients| at most
    (sum |2k+1|)^2 = K^4 <= 2^32), reduced modulo the two primes, then six
    sparse products by T on those residues, through one reused product
    buffer.  The residues are (n, 2) columns, one per modulus, so that each
    shifted copy is one contiguous slice of both; the (2, n) result is their
    transpose.  A product adds its K shifted copies unreduced and reduces once.
    The K coefficients have |2k+1| summing to K^2, and K <= 2^8 for
    n < 2^15; every product starts from residues, so the unreduced sums are
    at most K^2 (m - 1) < 2^16 2^47 = 2^63 and never wrap.
    """
    if n >= 2**15:
        raise OverflowError(f"coefficients up to x^{n - 1} may exceed the lift range")
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
    moduli = np.array(_TAU_MODULI, dtype=np.int64)
    cur = np.remainder(square[:, None], moduli)  # T^2, one column of residues per modulus
    new = np.empty_like(cur)
    term = np.empty_like(cur)  # coef times the shifted copy, reused by every term
    for _ in range(6):
        new.fill(0)
        for coef, e in sparse:
            np.multiply(cur[: n - e], coef, out=term[: n - e])
            new[e:] += term[: n - e]
        np.remainder(new, moduli, out=cur)
    cur.flags.writeable = False
    return cur.T


def _discriminant_coeffs(n: int, at: np.ndarray) -> tuple[int, ...]:
    """Coefficients of prod_{m>=1} (1 - x^m)^24 at the exponents ``at``, all
    of them below n, as exact integers, for n < 2^15 (see
    ``_discriminant_residues``).

    The residues r1, r2 modulo m1, m2 are lifted by Garner's formula on
    Python ints: x = r1 + m1 ((r2 - r1) m1^-1 mod m2) is the one integer in
    [0, M), M = m1 m2, with those residues, and x - M is taken when
    2 x > M.  That is exact while |tau(m)| < M / 2 for every m <= n; by
    Deligne, |tau(m)| <= d(m) m^(11/2) <= 2 m^6, and M, about 2^94, is
    above 4 (2 n^6) for n < 2^15.
    """
    residues = _discriminant_residues(n)[:, at]
    m1, m2 = _TAU_MODULI
    modulus = m1 * m2
    inverse = pow(m1, -1, m2)
    lifted = (r1 + m1 * ((r2 - r1) * inverse % m2) for r1, r2 in zip(*residues.tolist()))
    return tuple(x - modulus if 2 * x > modulus else x for x in lifted)


def delta_eigenvalues(N: int) -> EigenvalueTable:
    """Eigenvalue table of the weight-12 cusp form for primes p <= N.

    a_p is the p-th coefficient of x * prod (1 - x^m)^24, computed exactly,
    only at the primes; alpha, beta are the normalized parameters with
    alpha * beta = 1 and alpha + beta = t = a_p / p^(11/2), the roots
    t / 2 +- i sqrt(1 - t^2 / 4), a conjugate pair on the unit circle: |t| <= 2
    by Deligne's bound (Publ. Math. IHES 43, 1974).  A t beyond it, a wrong
    a_p, raises ArithmeticError naming p before any square root is taken.
    """
    if N > 10_000:
        raise ValueError("fixture is desk-scale: N <= 10^4")
    qs = _prime_array(N)
    a_p = _discriminant_coeffs(max(N, 1), qs - 1)
    # one float power per prime, as Python takes it: numpy's own can differ in the last bit
    t = np.array(a_p, dtype=float) / np.array([p ** ((DELTA_WEIGHT - 1) / 2) for p in qs.tolist()])
    disc = 4.0 - t * t
    if (disc < 0).any():
        raise ArithmeticError(f"a_p beyond Deligne's bound 2 p^(11/2) at p={qs[disc < 0][0]}")
    root = np.sqrt(disc) / 2.0
    params = np.empty((len(qs), 2), dtype=complex)
    parts = params.view(float)  # columns re alpha, im alpha, re beta, im beta
    parts[:, 0] = parts[:, 2] = t / 2.0
    parts[:, 1], parts[:, 3] = root, -root
    params.flags.writeable = False
    rows = tuple(map(EigenvalueRow, qs.tolist(), a_p, params[:, 0].tolist(), params[:, 1].tolist()))
    return EigenvalueTable(rows, qs, params)


def eigen_symbol(registry: SymbolRegistry, sid: str, table: EigenvalueTable):
    """Register a self-dual degree-2 symbol carrying the table's parameters."""
    return registry.create(sid, 2, central_char="1", self_dual=True, qs=table.qs, params=table.params)


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
