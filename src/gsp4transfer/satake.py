"""Exact and floating-point arithmetic for unramified Satake data.

A Satake parameter is stored as a nonzero complex scalar, the value of an
unramified character at a uniformizer.  A scalar may additionally carry an
exact form ``q^r * e^(2*pi*i*t)`` with r, t rational, so that transfer maps
can be composed without rounding; the exact form is authoritative whenever
both operands have one.

The module houses the dual-group parameter containers (GL(2), GSp(4),
GL(4) semisimple data), the lifting maps between them, the exponent
pattern classifier for pre-unitary subquotients, and JSON serialization
(every parameter kind is written; gl4 documents, for ``rodier``, are read).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from typing import Iterable, Sequence, Union

import numpy as np

FLOAT_TOL = 1e-12  # relative tolerance for structural invariants in float mode
MATCH_TOL = 1e-9   # per-entry tolerance for multiset matching

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
THREE_HALVES = Fraction(3, 2)


class CentralCharMismatch(ValueError):
    """Central characters of the two GL(2) inputs disagree."""

    constraint = "central_char_compatibility"


# Miller-Rabin with the first four prime bases is exact below 3215031751
# (Jaeschke, 1993), with the first nine below 3825123056546413051 (Jiang and
# Deng, Math. Comp. 2014) and with all thirteen below this bound (Sorenson and
# Webster, 2015); larger residue cardinalities are rejected.
PRIME_POWER_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_POWER_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES[:4 if n < 3_215_031_751 else 9 if n < 3_825_123_056_546_413_051 else 13]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1 / k)) for k >= 2: a float guess, corrected exactly."""
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


@lru_cache(maxsize=4096)  # bounded: a place shared by several symbols is tested once
def _is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1; exact for n < PRIME_POWER_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    # every prime factor of n now exceeds 41, so n = p^k needs 43^k <= n
    k = 1
    while 43**k <= n:
        r = n if k == 1 else _iroot(n, k)
        if r**k == n and _is_prime(r):
            return True
        k += 1
    return False


def check_place(q: int) -> int:
    """q, checked to be a place: a prime power >= 2, below ``PRIME_POWER_LIMIT``."""
    if q >= PRIME_POWER_LIMIT:
        raise ValueError(f"residue cardinality must be below {PRIME_POWER_LIMIT}, got {q}")
    if q < 2 or not _is_prime_power(q):
        raise ValueError(f"residue cardinality must be a prime power >= 2, got {q}")
    return q


# Places below this bound are looked up in a sieved table (2^24 bytes at
# most), which covers every place a sieve of lseries.MAX_X = 10^7 yields.
PRIME_POWER_TABLE_CAP = 2**24


def prime_sieve(n: int) -> np.ndarray:
    """Sieve of Eratosthenes: boolean array of length n >= 1, entry m says whether m is prime."""
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


@lru_cache(maxsize=None)
def place_table(n: int) -> np.ndarray:
    """Read-only uint8 table of length n >= 1: entry m is 1 when m is prime,
    2 when m is a proper prime power and 0 otherwise.  Memoised, one table
    per n: ``check_places`` looks places up in it and ``lseries`` reads its
    primes from it, so one sieve serves both."""
    table = prime_sieve(n).view(np.uint8)
    primes = powers = np.flatnonzero(table[: math.isqrt(n - 1) + 1])
    while len(primes):
        keep = powers <= (n - 1) // primes  # the next power is still below n
        primes, powers = primes[keep], powers[keep] * primes[keep]
        table[powers] = 2
    table.flags.writeable = False
    return table


def place_array(qs, owner: str) -> np.ndarray:
    """qs as a flat int64 array; nested places, a non-integer place or one beyond int64 raise, naming ``owner``."""
    try:
        arr = np.asarray(qs)
        # numpy casts uint64 to int64 with wraparound, so check the range first
        if arr.dtype.kind == "u" and np.any(arr > np.iinfo(np.int64).max):
            raise OverflowError
        out = np.array(qs, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{owner}: a place is beyond the int64 range") from None
    except (TypeError, ValueError):  # complex, None, text that is no number
        out = None
    if out is not None and out.ndim != 1:
        raise ValueError(f"{owner}: places must be a flat sequence")
    if out is None or len(out) and arr.dtype.kind not in "iu":  # float, text, bool
        raise ValueError(f"{owner}: places must be integers")
    return out


def check_places(qs: np.ndarray) -> None:
    """Check that every entry of the ascending int64 array qs is a place.

    Raises ``check_place``'s error for the smallest entry that is not.
    Entries below ``PRIME_POWER_TABLE_CAP`` are one lookup each in a sieved
    table; larger ones go through ``check_place`` and its Miller-Rabin.
    """
    split = int(np.searchsorted(qs, PRIME_POWER_TABLE_CAP))
    small = qs[:split]
    if len(small):
        if small[0] < 2:
            check_place(int(small[0]))
        bad = place_table(1 << int(small[-1]).bit_length())[small] == 0
        if bad.any():
            check_place(int(small[bad.argmax()]))
    for q in qs[split:].tolist():
        check_place(q)


@dataclass(frozen=True)
class ExactForm:
    """Exact value q^r * e^(2*pi*i*turns); turns is kept normalized mod 1."""

    r: Fraction
    turns: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "turns", Fraction(self.turns) % 1)

    def evaluate(self, q: int) -> complex:
        try:
            mag = math.exp(float(self.r) * math.log(q))
        except OverflowError:
            # r may have thousands of digits: a long one is shown to four figures
            r = str(self.r)
            r = f"r={r}" if len(r) <= 24 else f"r~{Decimal(self.r.numerator) / self.r.denominator:.3e}"
            raise ValueError(f"q^r is beyond the float range at q={q}, {r}") from None
        return mag * cmath.exp(2j * math.pi * float(self.turns))

    def __mul__(self, other: "ExactForm") -> "ExactForm":
        return ExactForm(self.r + other.r, self.turns + other.turns)

    def inverse(self) -> "ExactForm":
        return ExactForm(-self.r, -self.turns)


@dataclass(frozen=True)
class UnramChar:
    """Value of an unramified character at a uniformizer.

    ``value`` is always present; ``exact`` is the optional rational form.
    Arithmetic combines exact forms when both operands carry one and falls
    back to plain complex arithmetic otherwise.
    """

    value: complex
    exact: ExactForm | None = None

    def __post_init__(self):
        v = complex(self.value)
        if v == 0:
            raise ValueError("unramified character value must be nonzero")
        object.__setattr__(self, "value", v)

    @classmethod
    def from_exact(cls, r, turns, q: int) -> "UnramChar":
        form = ExactForm(Fraction(r), Fraction(turns))
        return cls(form.evaluate(q), form)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def consistent_at(self, q: int) -> bool:
        """Whether re-evaluating the exact form at q reproduces ``value``."""
        if self.exact is None:
            return True
        return within_tol(self.exact.evaluate(q), self.value, FLOAT_TOL)

    def __mul__(self, other) -> "UnramChar":
        other = as_char(other)
        exact = self.exact * other.exact if (self.exact and other.exact) else None
        return UnramChar(self.value * other.value, exact)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "UnramChar":
        return self * as_char(other).inverse()

    def inverse(self) -> "UnramChar":
        exact = self.exact.inverse() if self.exact else None
        return UnramChar(1.0 / self.value, exact)


Scalar = Union[complex, float, int, Fraction, UnramChar]


def as_char(x: Scalar) -> UnramChar:
    return x if isinstance(x, UnramChar) else UnramChar(complex(x))


def _modulus(z):
    """|z| as Python's ``abs`` computes it, ``hypot`` of the parts, also on arrays
    (numpy's complex ``abs`` can differ from it in the last bit)."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def within_tol(x, y, tol: float = MATCH_TOL):
    """``|x - y| <= tol * max(1, |x|, |y|)``, on scalars or elementwise on arrays
    with the same verdict bit for bit: the one definition of "equal within
    tolerance" for float data."""
    d = _modulus(x - y)
    return (d <= tol) | (d <= tol * _modulus(x)) | (d <= tol * _modulus(y))


def chars_equal(a: Scalar, b: Scalar) -> bool:
    """Equal exactly when both have exact forms, else within ``FLOAT_TOL``."""
    a, b = as_char(a), as_char(b)
    if a.exact is not None and b.exact is not None:
        return a.exact == b.exact
    return within_tol(a.value, b.value, FLOAT_TOL)


def _char_key(c: UnramChar):
    # Exact entries sort ahead of float ones so canonical order is stable.
    if c.exact is not None:
        return (0, c.exact.r, c.exact.turns)
    return (1, c.value.real, c.value.imag)


def perfect_matching(adj: Sequence[Sequence[int]]) -> list[int] | None:
    """A perfect matching of the bipartite graph ``i -> adj[i]`` on n + n
    vertices, as the left vertex matched to each right vertex, or None.

    Augmenting paths as in Hopcroft and Karp (1973), found one per left
    vertex rather than in phases, which is plenty for n <= 16.
    """
    owner = [-1] * len(adj)

    def augment(i: int, seen: set) -> bool:
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return owner if all(augment(i, set()) for i in range(len(adj))) else None


def match_multisets(xs: Iterable[Scalar], ys: Iterable[Scalar], tol: float = MATCH_TOL) -> bool:
    """Multiset equality of scalars.

    Exact on both sides: compare sorted exact forms.  Otherwise a perfect
    matching on the graph joining entries equal within ``within_tol``, so the
    verdict does not depend on the order of the arguments or their entries.
    """
    xs = [as_char(x) for x in xs]
    ys = [as_char(y) for y in ys]
    if len(xs) != len(ys):
        return False
    if all(x.is_exact for x in xs) and all(y.is_exact for y in ys):
        key = lambda f: (f.r, f.turns)
        return sorted((x.exact for x in xs), key=key) == sorted((y.exact for y in ys), key=key)
    adj = [[j for j, y in enumerate(ys) if within_tol(x.value, y.value, tol)] for x in xs]
    return perfect_matching(adj) is not None


@lru_cache(maxsize=None)
def _matching_table(d: int) -> np.ndarray:
    """Read-only boolean table of length 2^(d * d): entry m says whether the
    d x d boolean matrix whose entry (i, j) is bit d * i + j of m has a
    perfect matching, a permutation p with every entry (i, p(i)) set.  With
    d <= 4 a mask fits in 16 bits."""
    masks = np.arange(1 << d * d, dtype=np.uint16)
    table = np.zeros(len(masks), dtype=bool)
    for perm in permutations(range(d)):
        bits = sum(1 << d * i + j for i, j in enumerate(perm))
        table |= masks & bits == bits
    table.flags.writeable = False
    return table


def match_multiset_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-wise ``match_multisets`` of (P, d) float arrays, d <= 4: row p
    matches when some permutation pairs xs[p] with ys[p] within tolerance.
    Each row's d x d ``within_tol`` bits, packed into one int, are looked up
    in ``_matching_table``.  A difference of finite entries may overflow to
    infinity, which is then simply not within tolerance."""
    n, d = xs.shape
    with np.errstate(over="ignore"):
        close = within_tol(xs[:, :, None], ys[:, None, :]).reshape(n, d * d)
    return _matching_table(d)[close @ (1 << np.arange(d * d))]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GL2Param:
    """Semisimple GL(2) parameter diag(alpha, beta) with central value mu."""

    alpha: UnramChar
    beta: UnramChar
    mu: UnramChar

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_char(self.alpha))
        object.__setattr__(self, "beta", as_char(self.beta))
        object.__setattr__(self, "mu", as_char(self.mu))
        if not chars_equal(self.mu, self.alpha * self.beta):
            raise ValueError("central value must equal alpha * beta")

    @classmethod
    def make(cls, alpha: Scalar, beta: Scalar) -> "GL2Param":
        alpha, beta = as_char(alpha), as_char(beta)
        return cls(alpha, beta, alpha * beta)


@dataclass(frozen=True)
class GSp4Param:
    """Semisimple GSp(4) parameter: unordered pair of unordered pairs.

    Each pair multiplies to the similitude mu.  The two printed orderings in
    circulation pair coordinates differently; rendering to a concrete
    4-tuple uses the convention that couples coordinates (1,4) and (2,3).
    """

    pairs: tuple[tuple[UnramChar, UnramChar], tuple[UnramChar, UnramChar]]
    mu: UnramChar

    def __post_init__(self):
        pairs = tuple(tuple(as_char(c) for c in pair) for pair in self.pairs)
        mu = as_char(self.mu)
        if len(pairs) != 2 or any(len(p) != 2 for p in pairs):
            raise ValueError("expected two coordinate pairs")
        for x, y in pairs:
            if not chars_equal(x * y, mu):
                raise ValueError("similitude violated: each pair must multiply to mu")
        pairs = tuple(tuple(sorted(p, key=_char_key)) for p in pairs)
        pairs = tuple(sorted(pairs, key=lambda p: _char_key(p[0])))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "mu", mu)

    def to_tuple(self) -> tuple[UnramChar, UnramChar, UnramChar, UnramChar]:
        """Render as (t1, t2, t3, t4) with t1*t4 = t2*t3 = mu."""
        (x1, y1), (x2, y2) = self.pairs
        return (x1, x2, y2, y1)


@dataclass(frozen=True)
class GL4Param:
    """Multiset of four nonzero scalars, kept in canonical order."""

    entries: tuple[UnramChar, UnramChar, UnramChar, UnramChar]

    def __post_init__(self):
        entries = tuple(sorted((as_char(c) for c in self.entries), key=_char_key))
        if len(entries) != 4:
            raise ValueError("expected exactly 4 entries")
        object.__setattr__(self, "entries", entries)

    def product(self) -> UnramChar:
        out = self.entries[0]
        for c in self.entries[1:]:
            out = out * c
        return out


@dataclass(frozen=True)
class ExponentVector:
    """Sorted absolute-value exponents log|x_i| / log q of a 4-entry parameter."""

    e: tuple

    def __post_init__(self):
        e = tuple(self.e)
        if len(e) != 4:
            raise ValueError("expected 4 exponents")
        if list(e) != sorted(e):
            raise ValueError("exponents must be sorted ascending")
        object.__setattr__(self, "e", e)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(x, Fraction) for x in self.e)


@dataclass(frozen=True)
class RodierVerdict:
    """Outcome of the exponent-pattern classification."""

    family: str  # "A", "B", "C" or "not_in_list"
    r: Fraction | float | None = None

    @property
    def in_list(self) -> bool:
        return self.family != "not_in_list"


# ---------------------------------------------------------------------------
# Transfer maps
# ---------------------------------------------------------------------------


def transfer_gsp4_to_gl4(c0: Scalar, c1: Scalar, c2: Scalar) -> GL4Param:
    """Transfer of unramified torus data to the 4-dimensional parameter.

    For torus character data (c0, c1, c2) the transferred parameter is the
    multiset {c1, c2, c0/c2, c0/c1}; its entry product is c0^2, which is the
    parameter-level statement that the transferred central character is the
    square of the original one.
    """
    c0, c1, c2 = as_char(c0), as_char(c1), as_char(c2)
    return GL4Param((c1, c2, c0 / c2, c0 / c1))


def theta_lift_params(p1: GL2Param, p2: GL2Param) -> GSp4Param:
    """Parameter of the lift of a GL(2) x GL(2) pair with equal central values.

    Raises CentralCharMismatch when the central values disagree, i.e. when
    the pair does not come from a single orthogonal-similitude datum.
    """
    if not chars_equal(p1.mu, p2.mu):
        raise CentralCharMismatch(
            f"central values differ: {p1.mu.value} != {p2.mu.value}"
        )
    return GSp4Param(((p1.alpha, p1.beta), (p2.alpha, p2.beta)), p1.mu)


def gsp4_to_gl4_embed(p: GSp4Param) -> GL4Param:
    """Forget the symplectic pairing: the multiset {x1, y1, x2, y2}."""
    (x1, y1), (x2, y2) = p.pairs
    return GL4Param((x1, y1, x2, y2))


def exponents(p: GL4Param, q: int) -> ExponentVector:
    """Sorted exponents e_i = log|x_i| / log q at the place q."""
    if all(c.is_exact for c in p.entries):
        return ExponentVector(tuple(sorted(c.exact.r for c in p.entries)))
    logq = math.log(q)
    return ExponentVector(tuple(sorted(math.log(abs(c.value)) / logq for c in p.entries)))


def rodier_class(e: ExponentVector, tol: float = MATCH_TOL) -> RodierVerdict:
    """Classify a sorted exponent vector against the admissible patterns.

    The three patterns available to a non-full-induced pre-unitary
    subquotient are (-1/2, -r, r, 1/2) with 0 <= r <= 1/4 (boundary
    inclusive), (-1/2, -1/2, 1/2, 1/2) and (-3/2, -1/2, 1/2, 3/2).
    Matching is exact on rational input and tolerance-based on floats.
    A not_in_list verdict for a pre-unitary subquotient forces the full
    induced representation.
    """
    a, b, c, d = e.e
    if e.is_exact:
        near, slack, r = (lambda x, y: x == y), 0, c
    else:
        near, slack, r = (lambda x, y: abs(float(x) - float(y)) <= tol), tol, float(c)
    if near(a, -HALF) and near(b, -HALF) and near(c, HALF) and near(d, HALF):
        return RodierVerdict("B")
    if near(a, -THREE_HALVES) and near(b, -HALF) and near(c, HALF) and near(d, THREE_HALVES):
        return RodierVerdict("C")
    if near(a, -HALF) and near(d, HALF) and near(b, -c) and -slack <= r <= QUARTER + slack:
        return RodierVerdict("A", r)
    return RodierVerdict("not_in_list")


def check_selfdual_twist(p: GL4Param, omega: Scalar) -> bool:
    """Whether the multiset {omega / x : x in entries} equals the entries."""
    omega = as_char(omega)
    twisted = [omega / c for c in p.entries]
    return match_multisets(p.entries, twisted, FLOAT_TOL)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _char_to_json(c: UnramChar) -> tuple[list, dict | None]:
    pair = [c.value.real, c.value.imag]
    if c.exact is None:
        return pair, None
    return pair, {"r": str(c.exact.r), "turns": str(c.exact.turns)}


_PAIR_CONTAINERS = frozenset({list, tuple})
_PAIR_NUMBERS = (int, float, np.integer, np.floating)


def complex_pairs(values, ndim: int, error: str) -> np.ndarray:
    """Document values that are ``[re, im]`` pairs of numbers, nested in lists
    or tuples to ``ndim`` levels counting the pairs, as a complex array of the
    nesting's shape; a ValueError with the text ``error`` for anything else,
    a ragged nesting or a numpy array too.  A boolean is not a number here.

    The nesting and the leaf types are checked level by level on flattened
    lists, and the leaves become one flat array; numpy's own dtype rules
    decide which integers it holds (beyond [-2^63, 2^64) none)."""
    shape, items = [], [values]
    for _ in range(ndim):
        if not set(map(type, items)) <= _PAIR_CONTAINERS or len(sizes := set(map(len, items))) != 1:
            break
        shape.append(sizes.pop())
        items = list(chain.from_iterable(items))
    else:
        if shape[-1] == 2 and all(issubclass(t, _PAIR_NUMBERS) and t is not bool for t in set(map(type, items))):
            arr = np.array(items)
            if arr.dtype.kind in "iuf":
                return arr.astype(float, copy=False).reshape(shape).view(complex)[..., 0]
    raise ValueError(error)


def _finite_pairs(values, ndim: int, name: str) -> list | complex:
    z = complex_pairs(values, ndim, f"{name} must be [re, im] pairs of numbers")
    if not np.isfinite(z).all():
        raise ValueError(f"{name} must be finite")
    return z.tolist()


RATIONAL_STRING_BOUND = 1000
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def rational(value, name: str) -> Fraction:
    """A rational number of a JSON document as a Fraction: an integer, a
    finite float (its exact binary value) or a string ``Fraction`` reads,
    such as ``"-1/2"``; a ValueError naming ``name`` for anything else.  A
    boolean is not a number here.  A string may have at most
    RATIONAL_STRING_BOUND characters and a decimal exponent of at most that
    magnitude: ``Fraction`` builds the power of ten of the exponent exactly
    (10^(10^7) takes seconds), so the numerator and denominator stay within
    about 2000 digits, and within the 4300 that int and str convert.  The
    message shows a refused value by ``clipped_repr``."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            if isinstance(value, str) and (
                len(value) > RATIONAL_STRING_BOUND
                or (exponent := _DECIMAL_EXPONENT.search(value)) and abs(int(exponent[1])) > RATIONAL_STRING_BOUND
            ):
                raise ValueError
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"{name} must be an integer, a finite float or a rational string, got {clipped_repr(value)}")


def clipped(text: str) -> str:
    """``text`` as a message shows it: whole up to 40 characters, else its
    first 40 and its length, since a document's text may run to any length."""
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def clipped_repr(value) -> str:
    """A refused document value as a message shows it: ``clipped`` of its repr."""
    return clipped(repr(value))


def doc_field(doc: dict, key: str, default):
    """``doc[key]``, or ``default`` when the key is absent or null: the one
    null rule of every optional key of a document."""
    value = doc.get(key)
    return default if value is None else value


def _char_from_json(value: complex, exact) -> UnramChar:
    if exact is None:
        return UnramChar(value)
    if not isinstance(exact, dict) or "r" not in exact or "turns" not in exact:
        raise ValueError(f"an exact form must be an object with r and turns, got {clipped_repr(exact)}")
    return UnramChar(value, ExactForm(rational(exact["r"], "exact form r"),
                                      rational(exact["turns"], "exact form turns")))


def param_to_json(p: GL2Param | GSp4Param | GL4Param) -> dict:
    """Serialize a parameter to its JSON document.

    The document has fields kind, entries (list of [re, im]), mu for kinds
    carrying a similitude, plus parallel ``exact`` / ``mu_exact`` fields
    when rational forms are present.  Round trips are bit-stable in exact
    mode because floats go through JSON unchanged and rational forms are
    strings.
    """
    if isinstance(p, GL2Param):
        kind, chars, mu = "gl2", [p.alpha, p.beta], p.mu
    elif isinstance(p, GSp4Param):
        kind, chars, mu = "gsp4", list(p.to_tuple()), p.mu
    elif isinstance(p, GL4Param):
        kind, chars, mu = "gl4", list(p.entries), None
    else:
        raise TypeError(f"not a parameter: {type(p).__name__}")
    entries, exacts = zip(*map(_char_to_json, chars))
    mu_pair, mu_exact = (None, None) if mu is None else _char_to_json(mu)
    doc = param_doc(kind, list(entries), mu_pair)
    if any(ex is not None for ex in exacts):
        doc["exact"] = list(exacts)
    if mu_exact is not None:
        doc["mu_exact"] = mu_exact
    return doc


def param_doc(kind: str, entries: list, mu: list | None = None) -> dict:
    """The float part of a parameter document: ``kind``, ``entries`` as
    [re, im] pairs and, for kinds carrying a similitude, ``mu``."""
    doc = {"kind": kind, "entries": entries}
    if mu is not None:
        doc["mu"] = mu
    return doc


def param_from_json(doc: dict) -> GL4Param:
    """The parameter of a gl4 document as ``param_to_json`` writes it; any
    other kind is refused first, and a ``mu`` is still read and checked."""
    if not isinstance(doc, dict):
        raise ValueError("a parameter document must be a JSON object")
    if doc.get("kind") != "gl4":
        raise ValueError(f"expected a gl4 parameter document, got kind {clipped_repr(doc.get('kind'))}")
    if "entries" not in doc:
        raise ValueError("a parameter document needs entries")
    values = _finite_pairs(doc["entries"], 2, "entries")
    exacts = doc_field(doc, "exact", [None] * len(values))
    if not isinstance(exacts, list):
        raise ValueError("exact must be a list")
    if len(exacts) != len(values):
        raise ValueError(f"exact has length {len(exacts)} but entries has length {len(values)}")
    chars = [_char_from_json(value, ex) for value, ex in zip(values, exacts)]
    if doc.get("mu") is not None:
        _char_from_json(_finite_pairs(doc["mu"], 1, "mu"), doc.get("mu_exact"))
    return GL4Param(tuple(chars))
