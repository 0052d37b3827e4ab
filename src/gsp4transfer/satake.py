"""Exact and floating-point arithmetic for unramified Satake data.

A Satake parameter is stored as a nonzero complex scalar, the value of an
unramified character at a uniformizer.  A scalar may additionally carry an
exact form ``q^r * e^(2*pi*i*t)`` with r, t rational, so that transfer maps
can be composed without rounding; the exact form is authoritative whenever
both operands have one.

The module houses the dual-group parameter containers (GL(2), GSp(4),
GL(4) semisimple data), the lifting maps between them, the order-8 Weyl
orbit machinery for Borel-induced character quadruples, the exponent
pattern classifier for pre-unitary subquotients, and JSON serialization
for all parameter kinds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
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


@dataclass(frozen=True)
class PlaceData:
    """A non-archimedean place, identified by its residue-field cardinality."""

    q: int

    def __post_init__(self):
        if self.q >= PRIME_POWER_LIMIT:
            raise ValueError(f"residue cardinality must be below {PRIME_POWER_LIMIT}, got {self.q}")
        if self.q < 2 or not _is_prime_power(self.q):
            raise ValueError(f"residue cardinality must be a prime power >= 2, got {self.q}")


@lru_cache(maxsize=None)
def place(q: int) -> PlaceData:
    """The place of residue cardinality q, validated once per process."""
    return PlaceData(q)


# Miller-Rabin with the first thirteen prime bases is exact below this bound
# (Sorenson and Webster, 2015), and with the first four below 3215031751
# (Jaeschke, 1993); larger residue cardinalities are rejected.
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
    for a in _MR_BASES[:4] if n < 3_215_031_751 else _MR_BASES:
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
            raise ValueError(f"q^r is beyond the float range at q={q}, r={self.r}") from None
        return mag * cmath.exp(2j * math.pi * float(self.turns))

    def __mul__(self, other: "ExactForm") -> "ExactForm":
        return ExactForm(self.r + other.r, self.turns + other.turns)

    def inverse(self) -> "ExactForm":
        return ExactForm(-self.r, -self.turns)

    def __pow__(self, n: int) -> "ExactForm":
        return ExactForm(self.r * n, self.turns * n)


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

    def consistent_at(self, q: int, rel_tol: float = FLOAT_TOL) -> bool:
        """Whether re-evaluating the exact form at q reproduces ``value``."""
        if self.exact is None:
            return True
        return within_tol(self.exact.evaluate(q), self.value, rel_tol)

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

    def __pow__(self, n: int) -> "UnramChar":
        exact = self.exact**n if self.exact else None
        return UnramChar(self.value**n, exact)


Scalar = Union[complex, float, int, Fraction, UnramChar]


def as_char(x: Scalar) -> UnramChar:
    if isinstance(x, UnramChar):
        return x
    if isinstance(x, Fraction):
        return UnramChar(complex(float(x)))
    return UnramChar(complex(x))


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


def chars_equal(a: Scalar, b: Scalar, tol: float = MATCH_TOL) -> bool:
    a, b = as_char(a), as_char(b)
    if a.exact is not None and b.exact is not None:
        return a.exact == b.exact
    return within_tol(a.value, b.value, tol)


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


def match_multiset_rows(xs: np.ndarray, ys: np.ndarray, tol: float = MATCH_TOL) -> np.ndarray:
    """Row-wise ``match_multisets`` of (P, d) float arrays, d <= 4: row p
    matches when some permutation pairs xs[p] with ys[p] within tolerance."""
    close = within_tol(xs[:, :, None], ys[:, None, :], tol)  # (P, d, d)
    d = range(xs.shape[1])
    return np.any([close[:, d, perm].all(axis=1) for perm in permutations(d)], axis=0)


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
        if not chars_equal(self.mu, self.alpha * self.beta, FLOAT_TOL):
            raise ValueError("central value must equal alpha * beta")

    @classmethod
    def make(cls, alpha: Scalar, beta: Scalar, mu: Scalar | None = None) -> "GL2Param":
        alpha, beta = as_char(alpha), as_char(beta)
        return cls(alpha, beta, alpha * beta if mu is None else as_char(mu))


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
            if not chars_equal(x * y, mu, FLOAT_TOL):
                raise ValueError("similitude violated: each pair must multiply to mu")
        pairs = tuple(tuple(sorted(p, key=_char_key)) for p in pairs)
        pairs = tuple(sorted(pairs, key=lambda p: _char_key(p[0])))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "mu", mu)

    def to_tuple(self) -> tuple[UnramChar, UnramChar, UnramChar, UnramChar]:
        """Render as (t1, t2, t3, t4) with t1*t4 = t2*t3 = mu."""
        (x1, y1), (x2, y2) = self.pairs
        return (x1, x2, y2, y1)

    @classmethod
    def from_tuple(cls, t: Sequence[Scalar], mu: Scalar | None = None) -> "GSp4Param":
        t = [as_char(c) for c in t]
        if len(t) != 4:
            raise ValueError("expected a 4-tuple")
        m = t[0] * t[3] if mu is None else as_char(mu)
        return cls(((t[0], t[3]), (t[1], t[2])), m)

    def torus_coordinates(self) -> tuple[UnramChar, UnramChar, UnramChar]:
        """Coordinates (a0, a1, a2) of the rendered tuple diag(a0a1a2, a0a1, a0a2, a0)."""
        t1, t2, t3, t4 = self.to_tuple()
        return (t4, t2 / t4, t3 / t4)


@dataclass(frozen=True)
class GL4Param:
    """Multiset of four nonzero scalars, kept in canonical order."""

    entries: tuple[UnramChar, UnramChar, UnramChar, UnramChar]

    def __post_init__(self):
        entries = tuple(sorted((as_char(c) for c in self.entries), key=_char_key))
        if len(entries) != 4:
            raise ValueError("expected exactly 4 entries")
        object.__setattr__(self, "entries", entries)

    @property
    def values(self) -> tuple[complex, complex, complex, complex]:
        return tuple(c.value for c in self.entries)

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


FAMILY_B = RodierVerdict("B")
FAMILY_C = RodierVerdict("C")
NOT_IN_LIST = RodierVerdict("not_in_list")


def family_a(r) -> RodierVerdict:
    return RodierVerdict("A", r)


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
    if not chars_equal(p1.mu, p2.mu, FLOAT_TOL):
        raise CentralCharMismatch(
            f"central values differ: {p1.mu.value} != {p2.mu.value}"
        )
    return GSp4Param(((p1.alpha, p1.beta), (p2.alpha, p2.beta)), p1.mu)


def gsp4_to_gl4_embed(p: GSp4Param) -> GL4Param:
    """Forget the symplectic pairing: the multiset {x1, y1, x2, y2}."""
    (x1, y1), (x2, y2) = p.pairs
    return GL4Param((x1, y1, x2, y2))


def langlands_param_from_induction(c1: Scalar, c2: Scalar, c3: Scalar) -> GSp4Param:
    """Parameter of the unramified subquotient induced from a Borel character.

    The induction character sends diag(a, b, m/a, m/b) to
    chi1(a) chi2(b) chi3(m).  The returned parameter is the
    similitude-consistent tuple (c3, c3*c1, c3*c2, c3*c1*c2) paired as
    {(c3, c3*c1*c2), (c3*c1, c3*c2)}, so that both coordinate pairs multiply
    to mu = c3^2 * c1 * c2.
    """
    c1, c2, c3 = as_char(c1), as_char(c2), as_char(c3)
    return GSp4Param(((c3, c3 * c1 * c2), (c3 * c1, c3 * c2)), c3 * c3 * c1 * c2)


def weyl_orbit(quad: Sequence[Scalar]) -> tuple[tuple[UnramChar, ...], ...]:
    """Orbit of an ordered character quadruple under the order-8 group.

    The group is generated by the involution swapping the first two slots
    and the involution swapping slots (1,3) and (2,4); orbit sizes divide 8.
    Returned in deterministic breadth-first order starting from the input.
    """
    start = tuple(as_char(c) for c in quad)

    def sigma(t):
        return (t[1], t[0], t[2], t[3])

    def tau(t):
        return (t[2], t[3], t[0], t[1])

    def seen(t, orbit):
        return any(all(chars_equal(a, b) for a, b in zip(t, u)) for u in orbit)

    orbit = [start]
    frontier = [start]
    while frontier:
        new = []
        for t in frontier:
            for image in (sigma(t), tau(t)):
                if not seen(image, orbit):
                    orbit.append(image)
                    new.append(image)
        frontier = new
    return tuple(orbit)


def exponents(p: GL4Param, place: PlaceData) -> ExponentVector:
    """Sorted exponents e_i = log|x_i| / log q at the given place."""
    if all(c.is_exact for c in p.entries):
        return ExponentVector(tuple(sorted(c.exact.r for c in p.entries)))
    logq = math.log(place.q)
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
        if (a, b, c, d) == (-HALF, -HALF, HALF, HALF):
            return FAMILY_B
        if (a, b, c, d) == (-THREE_HALVES, -HALF, HALF, THREE_HALVES):
            return FAMILY_C
        if a == -HALF and d == HALF and b == -c and 0 <= c <= QUARTER:
            return family_a(c)
        return NOT_IN_LIST

    def near(x, y):
        return abs(float(x) - float(y)) <= tol

    if near(a, -0.5) and near(b, -0.5) and near(c, 0.5) and near(d, 0.5):
        return FAMILY_B
    if near(a, -1.5) and near(b, -0.5) and near(c, 0.5) and near(d, 1.5):
        return FAMILY_C
    if near(a, -0.5) and near(d, 0.5) and near(float(b) + float(c), 0.0):
        r = float(c)
        if -tol <= r <= 0.25 + tol:
            return family_a(r)
    return NOT_IN_LIST


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


def complex_pairs(values, ndim: int, error: str) -> np.ndarray:
    """Document values that are ``[re, im]`` pairs of JSON numbers, nested in
    lists to ``ndim`` levels counting the pairs, as a complex array of the
    nesting's shape; a ValueError for anything else, ``error`` unless numpy
    finds the nesting ragged."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim or arr.shape[-1] != 2:
        raise ValueError(error)
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def _finite_pairs(values, ndim: int, name: str) -> list | complex:
    z = complex_pairs(values, ndim, f"{name} must be [re, im] pairs of numbers")
    if not np.isfinite(z).all():
        raise ValueError(f"{name} must be finite")
    return z.tolist()


def _char_from_json(value: complex, exact) -> UnramChar:
    if exact is None:
        return UnramChar(value)
    if not isinstance(exact, dict):
        raise ValueError(f"an exact form must be an object with r and turns, got {exact!r}")
    try:
        form = ExactForm(Fraction(exact["r"]), Fraction(exact["turns"]))
    except (TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"invalid exact form {exact!r}: {exc}") from None
    return UnramChar(value, form)


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


def param_from_json(doc: dict) -> GL2Param | GSp4Param | GL4Param:
    if not isinstance(doc, dict):
        raise ValueError("a parameter document must be a JSON object")
    kind = doc.get("kind")
    values = _finite_pairs(doc["entries"], 2, "entries")
    exacts = doc.get("exact") or [None] * len(values)
    if not isinstance(exacts, list):
        raise ValueError("exact must be a list")
    chars = [_char_from_json(value, ex) for value, ex in zip(values, exacts)]
    mu = None
    if "mu" in doc:
        mu = _char_from_json(_finite_pairs(doc["mu"], 1, "mu"), doc.get("mu_exact"))
    if kind == "gl2":
        if len(chars) != 2 or mu is None:
            raise ValueError("gl2 document needs 2 entries and mu")
        return GL2Param(chars[0], chars[1], mu)
    if kind == "gsp4":
        return GSp4Param.from_tuple(chars, mu)
    if kind == "gl4":
        return GL4Param(tuple(chars))
    raise ValueError(f"unknown parameter kind: {kind!r}")
