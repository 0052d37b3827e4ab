"""Formal calculus of cuspidal symbols and isobaric sums.

Cuspidal representations are formal symbols: an opaque id, a degree, a
pointer to the contragredient symbol, a central-character id, and sampled
unramified local parameter multisets.  Symbols live in an append-only
registry.  On top of them: duals and twists of isobaric sums, the bilinear
Rankin-Selberg factorization, the exact pole order at s = 1, the
admissible-shape validator for transfers of unitary cuspidal data, the
case analysis for pairs of degree-4 descriptors, and association matching
of cuspidal lists from local data.

Equivalence of symbols is decided by symbol identity plus, when local data
is present, agreement of local parameter multisets at all commonly sampled
places; strong multiplicity one is what justifies a.e.-local equality as
the oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .satake import (
    FLOAT_TOL,
    CentralCharMismatch,
    PlaceData,
    UnramChar,
    as_char,
    complex_pairs,
    match_multiset_rows,
    perfect_matching,
    place,
    within_tol,
)


class NotUnitaryNormalized(ValueError):
    """Pole-order calculus requires all twist exponents to vanish."""

    constraint = "unitary_normalization"


class ConstituentsNotDistinct(ValueError):
    """The two degree-2 constituents of a lifted datum must be non-isomorphic."""

    constraint = "distinct_constituents"


class InsufficientLocalData(ValueError):
    """A sampled place is missing local parameters."""


def inverse_char_id(cc: str) -> str:
    """Id of the inverse central character; the trivial character is '1'."""
    if cc == "1":
        return "1"
    return cc[1:] if cc.startswith("~") else "~" + cc


class LocalParams(Mapping):
    """Read-only place -> parameter-tuple view over columnar local data: a lookup
    bisects ``qs`` for the row, and keys come from the interned ``place``.  As
    ``local`` of ``SymbolRegistry.create`` its arrays are taken over as they are."""

    def __init__(self, qs, params):
        self.qs, self.params = np.asarray(qs), np.asarray(params)

    def __getitem__(self, pl: PlaceData) -> tuple[UnramChar, ...]:
        i = int(np.searchsorted(self.qs, pl.q))
        if i == len(self.qs) or self.qs[i] != pl.q:
            raise KeyError(pl)
        return tuple(map(UnramChar, self.params[i].tolist()))

    def __iter__(self) -> Iterator[PlaceData]:
        return map(place, self.qs.tolist())

    def __len__(self) -> int:
        return len(self.qs)


@dataclass(frozen=True, eq=False)
class CuspidalSymbol:
    """A formal cuspidal representation with sampled local Satake data.

    Local data is stored once, as two read-only arrays: ``qs`` (int64,
    shape (P,), the sampled residue cardinalities in ascending order) and
    ``params`` (complex128, shape (P, degree)).  It is float only; exact
    forms live on ``satake`` parameters, not on symbols.  ``local_params``
    is a read-only ``Mapping[PlaceData, tuple[UnramChar, ...]]`` view over
    the arrays for callers that work per place.
    """

    id: str
    degree: int
    dual_id: str
    central_char_id: str
    qs: np.ndarray
    params: np.ndarray
    _registry: "SymbolRegistry | None" = field(default=None, repr=False)
    local_params: LocalParams = field(init=False, repr=False)

    def __post_init__(self):
        if self.degree not in (1, 2, 3, 4):
            raise ValueError(f"degree must be in 1..4, got {self.degree}")
        try:
            qs = np.array(self.qs, dtype=np.int64).reshape(-1)
        except OverflowError:
            raise ValueError(f"symbol {self.id}: a place is beyond the int64 range") from None
        params = np.array(self.params, dtype=complex).reshape(len(qs), -1 if len(qs) else self.degree)
        if params.shape[1] != self.degree:
            raise ValueError(f"symbol {self.id}: {params.shape[1]} parameters per place, "
                             f"expected {self.degree}")
        order = np.argsort(qs)
        qs, params = qs[order], params[order]
        for q in qs.tolist():
            place(q)  # a prime power
        if np.any(np.diff(qs) == 0) or np.any(params == 0):
            raise ValueError(f"symbol {self.id}: a place is sampled twice or a parameter is zero")
        # every later use (duals, chains, JSON output) needs finite values with finite inverses
        with np.errstate(over="ignore", invalid="ignore"):
            for bad, fault in ((~np.isfinite(params), "is not finite"),
                               (~np.isfinite(1 / params), "has no finite inverse")):
                if bad.any():
                    q = int(qs[bad.any(axis=1)][0])
                    raise ValueError(f"symbol {self.id}: a local parameter at q={q} {fault}")
        qs.flags.writeable = params.flags.writeable = False
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "local_params", LocalParams(qs, params))

    def __eq__(self, other):
        return isinstance(other, CuspidalSymbol) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    @property
    def is_self_dual(self) -> bool:
        return self.dual_id == self.id

    def dual(self) -> "CuspidalSymbol":
        if self.is_self_dual:
            return self
        if self._registry is None:
            raise ValueError(f"symbol {self.id} is not attached to a registry")
        return self._registry.get(self.dual_id)


def _first_mismatch(qs: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> int | None:
    """The smallest q whose rows of xs and ys differ as multisets, or None."""
    bad = ~match_multiset_rows(xs, ys)
    return int(qs[bad][0]) if bad.any() else None


def rows_at(sym: CuspidalSymbol, qs: np.ndarray) -> np.ndarray:
    """Row of each q of ``qs`` in the symbol's local data; every q must be sampled."""
    rows = np.searchsorted(sym.qs, qs)
    missing = np.append(sym.qs, 0)[rows] != qs
    if missing.any():
        raise InsufficientLocalData(f"symbol {sym.id} has no local data at q={qs[missing][0]}")
    return rows


def _dual_of(sym: CuspidalSymbol, declared: CuspidalSymbol | None = None) -> CuspidalSymbol:
    """The contragredient of ``sym``.

    A self-dual symbol is its own, once its data is checked to be
    inverse-closed.  A ``declared`` dual must name ``sym`` as its dual and be
    entrywise inverse to it at shared places; it comes back with the inverse
    of ``sym``'s data added at places only ``sym`` samples.  Otherwise the
    dual is a new symbol with the inverse data and central character.
    """
    if sym.is_self_dual:
        q = _first_mismatch(sym.qs, sym.params, 1 / sym.params)
        if q is not None:
            raise ValueError(f"symbol {sym.id}: local data at q={q} is not inverse-closed, "
                             "cannot be self-dual")
        return sym
    inverse = 1 / sym.params
    if declared is None:
        cc = inverse_char_id(sym.central_char_id)
        return CuspidalSymbol(sym.dual_id, sym.degree, sym.id, cc, sym.qs, inverse)
    if declared.dual_id != sym.id:
        raise ValueError(f"dual of dual of {sym.id} is not {sym.id}")
    common, i, j = np.intersect1d(sym.qs, declared.qs, assume_unique=True, return_indices=True)
    q = _first_mismatch(common, declared.params[j], inverse[i])
    if q is not None:
        raise ValueError(f"local data of {sym.id} and {declared.id} at q={q} are not entrywise inverse")
    extra = ~np.isin(sym.qs, declared.qs)
    return replace(declared, qs=np.concatenate([declared.qs, sym.qs[extra]]),
                   params=np.concatenate([declared.params, inverse[extra]]))


def equivalent(a: CuspidalSymbol, b: CuspidalSymbol) -> bool:
    """Equivalence oracle: identity, or local agreement at all common places."""
    if a.id == b.id:
        return True
    if a.degree != b.degree:
        return False
    common, ia, ib = np.intersect1d(a.qs, b.qs, assume_unique=True, return_indices=True)
    if not len(common):
        return False
    return _first_mismatch(common, a.params[ia], b.params[ib]) is None


class SymbolRegistry:
    """Append-only id -> symbol store; symbols are immutable once created."""

    def __init__(self):
        self._symbols: dict[str, CuspidalSymbol] = {}

    def __contains__(self, sid: str) -> bool:
        return sid in self._symbols

    def __iter__(self):
        return iter(self._symbols.values())

    def get(self, sid: str) -> CuspidalSymbol:
        return self._symbols[sid]

    def _insert(self, sym: CuspidalSymbol) -> CuspidalSymbol:
        if sym.id in self._symbols:
            raise ValueError(f"symbol id {sym.id!r} already registered")
        object.__setattr__(sym, "_registry", self)
        self._symbols[sym.id] = sym
        return sym

    def create(
        self,
        sid: str,
        degree: int,
        *,
        central_char: str = "1",
        self_dual: bool = False,
        dual_id: str | None = None,
        local: Mapping[PlaceData, Sequence] | None = None,
    ) -> CuspidalSymbol:
        """Create a symbol together with its contragredient.

        Unless ``self_dual`` is set, the dual symbol is materialized with the
        entrywise-inverse local data and the inverse central character.
        Self-dual creation requires every sampled multiset to be closed under
        inversion.  Exact forms of ``UnramChar`` entries are dropped: symbol
        local data is float only.
        """
        if isinstance(local, LocalParams):
            qs, params = local.qs, local.params
        else:
            qs = [pl.q for pl in local or {}]
            params = [[as_char(x).value for x in row] for row in (local or {}).values()]
        dual_id = sid if self_dual else dual_id or sid + "^"
        sym = CuspidalSymbol(sid, degree, dual_id, central_char, qs, params)
        dual = _dual_of(sym)
        self._insert(sym)
        if dual is not sym:
            self._insert(dual)
        return sym


# ---------------------------------------------------------------------------
# Isobaric sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsobaricRep:
    """Isobaric sum of twisted cuspidal symbols.

    Twist exponents are exact rationals and the unitary normalization
    ``sum(degree_i * r_i) == 0`` is enforced at construction.
    """

    terms: tuple[tuple[CuspidalSymbol, Fraction], ...]

    def __post_init__(self):
        terms = tuple((sym, Fraction(r)) for sym, r in self.terms)
        if not terms:
            raise ValueError("isobaric sum needs at least one term")
        if sum(sym.degree * r for sym, r in terms) != 0:
            raise ValueError("unitary normalization violated: sum(n_i * r_i) != 0")
        object.__setattr__(self, "terms", terms)

    @property
    def degree(self) -> int:
        return sum(sym.degree for sym, _ in self.terms)

    @property
    def constituents(self) -> tuple[CuspidalSymbol, ...]:
        return tuple(sym for sym, _ in self.terms)


def isobaric(symbols: Iterable[CuspidalSymbol]) -> IsobaricRep:
    """Untwisted isobaric sum of the given symbols."""
    return IsobaricRep(tuple((sym, Fraction(0)) for sym in symbols))


def dual(rep: IsobaricRep) -> IsobaricRep:
    """Termwise contragredient with negated twist exponents."""
    return IsobaricRep(tuple((sym.dual(), -r) for sym, r in rep.terms))


def reps_equivalent(r1: IsobaricRep, r2: IsobaricRep) -> bool:
    """Equality of isobaric sums up to reordering of terms."""
    if len(r1.terms) != len(r2.terms):
        return False
    adj = [[j for j, (other, rr) in enumerate(r2.terms) if r == rr and equivalent(sym, other)]
           for sym, r in r1.terms]
    return perfect_matching(adj) is not None


@dataclass(frozen=True)
class RSFactor:
    """One Rankin-Selberg factor of the bilinear expansion."""

    sigma: CuspidalSymbol
    tau: CuspidalSymbol
    shift: Fraction


def rs_factorization(r1: IsobaricRep, r2: IsobaricRep) -> list[RSFactor]:
    """Full bilinear expansion: one factor per constituent pair."""
    return [
        RSFactor(s1, s2, r + rr)
        for s1, r in r1.terms
        for s2, rr in r2.terms
    ]


@dataclass(frozen=True)
class PoleReport:
    """Exact pole order at s = 1 with one witness pair per unit of order."""

    order: int
    witnesses: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.order != len(self.witnesses):
            raise ValueError("order must equal the number of witnesses")


def pole_order_at_one(r1: IsobaricRep, r2: IsobaricRep) -> PoleReport:
    """Pole order of the pairing at s = 1 for unitary-normalized sums.

    A constituent pair (i, j) contributes a simple pole exactly when the
    j-th constituent of r2 is the contragredient of the i-th constituent of
    r1; the order is additive over pairs.
    """
    for rep in (r1, r2):
        if any(r != 0 for _, r in rep.terms):
            raise NotUnitaryNormalized("twist exponents must all vanish")
    witnesses = []
    for i, (s1, _) in enumerate(r1.terms):
        s1d = s1.dual()
        for j, (s2, _) in enumerate(r2.terms):
            if equivalent(s2, s1d):
                witnesses.append((i, j))
    return PoleReport(len(witnesses), tuple(witnesses))


# ---------------------------------------------------------------------------
# Transfer shapes
# ---------------------------------------------------------------------------

REASON_UNITARITY = "unitarity forces sum(n_i * r_i) = 0"
REASON_GL1_TWIST = (
    "n_t = 1: the twist by the degree-1 constituent is entire, "
    "but the shifted factor forces a pole"
)
REASON_CONTRAGREDIENT = (
    "n_t = 3: passing to contragredients reduces to the degree-1 contradiction"
)
REASON_NONZERO_TWIST = "n_t = 2: a pole at s = 1 forces the last twist exponent to vanish"
REASON_THREE_BLOCKS = (
    "t = 3: all twists are forced to zero, then the twist by the first "
    "constituent makes an entire L-function acquire a pole"
)


@dataclass(frozen=True)
class ShapeVerdict:
    admissible: bool
    reason: str | None = None


def validate_transfer_shape(shape: Sequence[tuple[int, Fraction]]) -> ShapeVerdict:
    """Decide whether an induction shape can carry a transfer of unitary data.

    ``shape`` is a list of (degree, twist) blocks with twists sorted
    descending and degrees summing to 4.  Only (4; 0) and (2, 2; 0, 0) are
    admissible; every other shape is rejected with the elimination reason.
    """
    blocks = [(int(n), Fraction(r)) for n, r in shape]
    if sum(n for n, _ in blocks) != 4:
        raise ValueError("degrees must sum to 4")
    rs = [r for _, r in blocks]
    if rs != sorted(rs, reverse=True):
        raise ValueError("twist exponents must be sorted descending")
    if sum(n * r for n, r in blocks) != 0:
        return ShapeVerdict(False, REASON_UNITARITY)
    t = len(blocks)
    degrees = sorted(n for n, _ in blocks)
    if t == 1:
        return ShapeVerdict(True)  # (4; 0), twist zero by unitarity
    if degrees == [2, 2] and all(r == 0 for r in rs):
        return ShapeVerdict(True)
    # The elimination walks the degree of the lowest-twist block; with ties,
    # a degree-1 block is preferred since the entire-twist argument applies.
    r_min = rs[-1]
    tied_degrees = {n for n, r in blocks if r == r_min}
    if 1 in tied_degrees:
        if t == 3 and all(r == 0 for r in rs):
            return ShapeVerdict(False, REASON_THREE_BLOCKS)
        return ShapeVerdict(False, REASON_GL1_TWIST)
    if 3 in tied_degrees:
        return ShapeVerdict(False, REASON_CONTRAGREDIENT)
    # lowest twist sits on a degree-2 block
    if r_min != 0:
        return ShapeVerdict(False, REASON_NONZERO_TWIST)
    return ShapeVerdict(False, REASON_THREE_BLOCKS)


# ---------------------------------------------------------------------------
# Descriptors and transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GSp4Descriptor:
    """Formal degree-4 datum, either lifted from a degree-2 pair or not.

    A lifted (``from_gso``) descriptor carries the two degree-2 symbols and
    the grossencharacter id they share as central character; both symbols
    must carry that central character and must not be isomorphic.
    """

    from_gso: bool
    central_char_id: str
    pair: tuple[CuspidalSymbol, CuspidalSymbol] | None = None
    gross_char_id: str | None = None
    cuspidal: CuspidalSymbol | None = None

    def __post_init__(self):
        if self.from_gso:
            if self.pair is None or self.gross_char_id is None:
                raise ValueError("lifted descriptor needs a symbol pair and a grossencharacter")
            p1, p2 = self.pair
            if p1.degree != 2 or p2.degree != 2:
                raise ValueError("lifted constituents must have degree 2")
            if (
                p1.central_char_id != self.gross_char_id
                or p2.central_char_id != self.gross_char_id
            ):
                raise CentralCharMismatch(
                    "central_char_compatibility: both constituents must carry the "
                    "grossencharacter as central character"
                )
            if equivalent(p1, p2):
                raise ConstituentsNotDistinct(
                    "distinct_constituents: the two constituents are isomorphic"
                )
        else:
            if self.cuspidal is None or self.cuspidal.degree != 4:
                raise ValueError("non-lifted descriptor needs a degree-4 cuspidal symbol")


def transfer(desc: GSp4Descriptor) -> IsobaricRep:
    """Transfer a descriptor to its degree-4 isobaric sum.

    A lifted descriptor transfers to the isobaric sum of its two degree-2
    constituents; otherwise the transfer is the single degree-4 cuspidal
    symbol.  Side conditions are available from transfer_conditions.
    """
    if desc.from_gso:
        return isobaric(desc.pair)
    return isobaric([desc.cuspidal])


def transfer_conditions(desc: GSp4Descriptor) -> tuple[str, ...]:
    """Recorded side conditions of the transfer, as constraint strings."""
    w = desc.central_char_id
    if desc.from_gso:
        p1, p2 = desc.pair
        return (
            f"{p1.id} ~ dual({p1.id}) (x) {w}",
            f"{p2.id} ~ dual({p2.id}) (x) {w}",
            f"{p1.id} !~ {p2.id}",
        )
    c = desc.cuspidal
    return (
        f"central_char({c.id}) = {w}^2",
        f"{c.id} ~ dual({c.id}) (x) {w}",
    )


@dataclass(frozen=True)
class PlaceChain:
    """The chain GL(2) x GL(2) -> GSp(4) -> GL(4) of a lifted descriptor, one
    row per place its two constituents both sample, in ascending q.

    ``gl2[p, k]`` is (alpha, beta) of constituent k and ``mu[p, k]`` their
    product, the central value; ``gsp4[p]`` is the lifted parameter rendered
    as (t1, t2, t3, t4), similitude ``mu[p, 0]``; ``gl4[p]`` is its embedded
    multiset in canonical order; ``commutes[p]`` says whether that multiset
    matches the direct transfer of the torus data (mu, alpha_1, alpha_2).
    When the central values differ at some place, the rows stop before the
    first such place and ``mismatch`` holds the error.
    """

    qs: np.ndarray
    gl2: np.ndarray
    mu: np.ndarray
    gsp4: np.ndarray
    gl4: np.ndarray
    commutes: np.ndarray
    mismatch: CentralCharMismatch | None = None


def _before(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise (x.real, x.imag) < (y.real, y.imag), the canonical order of float scalars."""
    return (x.real < y.real) | ((x.real == y.real) & (x.imag < y.imag))


def transfer_places(desc: GSp4Descriptor) -> PlaceChain:
    """The parameter chain of a lifted descriptor at all common places at once.

    Row for row the same values as the scalar route through ``satake``
    (``GL2Param.make``, ``theta_lift_params``, ``gsp4_to_gl4_embed``,
    ``transfer_gsp4_to_gl4``, ``match_multisets``): the central values are
    Python's complex product, rounded after each operation as CPython does
    (numpy's complex multiply may fuse and then differs in the last bit),
    and the canonical orders are the same stable sorts by (re, im).  The
    direct transfer only feeds the tolerance match, so it uses numpy's
    complex arithmetic.  At the first place where the scalar route would
    raise, this raises the same ValueError, or stops the rows there with
    ``mismatch`` set for unequal central values.  Emitted rows hold only
    finite values, given finite local parameters.
    """
    p1, p2 = desc.pair
    qs, i1, i2 = np.intersect1d(p1.qs, p2.qs, assume_unique=True, return_indices=True)
    gl2 = np.stack([p1.params[i1], p2.params[i2]], axis=1)  # (P, constituent, (alpha, beta))
    a, b = gl2[..., 0], gl2[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.empty(a.shape, dtype=complex)
        mu.real = a.real * b.real - a.imag * b.imag
        mu.imag = a.real * b.imag + a.imag * b.real
        direct = np.concatenate([a, mu[:, :1] / a[:, ::-1]], axis=1)  # c1, c2, c0/c2, c0/c1
        zero, finite = mu == 0, np.isfinite(mu)
        # the scalar route's failures at one place, in the order it meets them;
        # None marks unequal central values
        faults = (
            (zero[:, 0], "unramified character value must be nonzero"),
            (~finite[:, 0], "central value must equal alpha * beta"),
            (zero[:, 1], "unramified character value must be nonzero"),
            (~finite[:, 1], "central value must equal alpha * beta"),
            (~within_tol(mu[:, 0], mu[:, 1], FLOAT_TOL), None),
            ((direct[:, 2:] == 0).any(axis=1), "unramified character value must be nonzero"),
        )
        failed = np.stack([mask for mask, _ in faults], axis=1)
        swap = _before(b, a)
        x, y = np.where(swap, b, a), np.where(swap, a, b)  # each pair sorted
        swap = _before(x[:, 1], x[:, 0])[:, None]
        x, y = np.where(swap, x[:, ::-1], x), np.where(swap, y[:, ::-1], y)  # pairs sorted by first entry
        embedded = np.stack([x[:, 0], y[:, 0], x[:, 1], y[:, 1]], axis=1)
        gl4 = np.take_along_axis(embedded, np.lexsort((embedded.imag, embedded.real)), axis=1)
        commutes = match_multiset_rows(embedded, direct)
    gsp4 = np.stack([x[:, 0], x[:, 1], y[:, 1], y[:, 0]], axis=1)
    mismatch = None
    bad = np.flatnonzero(failed.any(axis=1))
    if len(bad):
        p = bad[0]
        message = faults[int(np.argmax(failed[p]))][1]
        if message is not None:
            raise ValueError(message)
        mismatch = CentralCharMismatch(f"central values differ: {complex(mu[p, 0])} != {complex(mu[p, 1])}")
        qs, gl2, mu, gsp4, gl4, commutes = (v[:p] for v in (qs, gl2, mu, gsp4, gl4, commutes))
    return PlaceChain(qs, gl2, mu, gsp4, gl4, commutes, mismatch)


@dataclass(frozen=True)
class CaseAnalysis:
    """Case label and pole report for a pair of descriptors."""

    label: str
    report: PoleReport


def jiang_case_analysis(d1: GSp4Descriptor, d2: GSp4Descriptor) -> CaseAnalysis:
    """Classify a descriptor pair and compute the pole order of the pairing.

    Labels: "1" (neither lifted; order 1 exactly when the transfers are
    contragredient), "2" (exactly one lifted; order 0), and for two lifted
    descriptors "3b" (order 2), "3c" (order 1) or "3a-excluded" (order 0;
    the configurations that would give order 3 or 4 cannot be built because
    constituents within a descriptor are distinct).
    """
    t1, t2 = transfer(d1), transfer(d2)
    report = pole_order_at_one(t1, t2)
    if not d1.from_gso and not d2.from_gso:
        label = "1"
    elif d1.from_gso != d2.from_gso:
        label = "2"
    else:
        label = {2: "3b", 1: "3c", 0: "3a-excluded"}[report.order]
    return CaseAnalysis(label, report)


# ---------------------------------------------------------------------------
# Association matching
# ---------------------------------------------------------------------------


def associate_match(
    list1: Sequence[CuspidalSymbol],
    list2: Sequence[CuspidalSymbol],
    sample: Iterable[PlaceData],
) -> tuple[int, ...] | None:
    """Match two cuspidal lists up to permutation from sampled local data.

    Returns phi with list2[j] equivalent to list1[phi[j]] (degrees match and
    local parameter multisets agree at every sampled place), or None when
    the lists are not associate.  Missing local data at a sampled place
    raises InsufficientLocalData.
    """
    qs = np.array(sorted({pl.q for pl in sample}), dtype=np.int64)
    if not len(qs):
        raise InsufficientLocalData("need at least one sampled place")
    rows1, rows2 = ([sym.params[rows_at(sym, qs)] for sym in lst] for lst in (list1, list2))
    if len(list1) != len(list2):
        return None

    def compatible(j: int, i: int) -> bool:
        return list2[j].degree == list1[i].degree and bool(match_multiset_rows(rows2[j], rows1[i]).all())

    n = len(list1)
    phi = perfect_matching([[j for j in range(n) if compatible(j, i)] for i in range(n)])
    return None if phi is None else tuple(phi)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def registry_to_json(registry: SymbolRegistry) -> list[dict]:
    out = []
    for sym in registry:
        out.append(
            {
                "id": sym.id,
                "degree": sym.degree,
                "dual": sym.dual_id,
                "central_char": sym.central_char_id,
                "local": dict(zip(map(str, sym.qs.tolist()),
                                  np.stack([sym.params.real, sym.params.imag], axis=-1).tolist())),
            }
        )
    return out


def registry_from_json(symbols: Sequence[dict]) -> SymbolRegistry:
    """Rebuild a registry from its document form.

    Undeclared duals are materialized with entrywise-inverse local data;
    declared duals are checked for mutually inverse multisets at shared
    places and backfilled at places only one side declares.  Self-dual
    symbols must carry inverse-closed multisets.
    """
    if not isinstance(symbols, list) or not all(isinstance(d, dict) for d in symbols):
        raise ValueError("symbols must be a list of objects")
    syms: dict[str, CuspidalSymbol] = {}
    for doc in symbols:
        sid, degree, dual = doc.get("id"), doc.get("degree"), doc.get("dual")
        cc, pairs = doc.get("central_char", "1"), doc.get("local") or {}
        if not all(isinstance(x, str) for x in (sid, dual, cc)):
            raise ValueError(f"symbol {sid!r}: id, dual and central_char must be strings")
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError(f"symbol {sid}: degree must be an integer, got {degree!r}")
        error = f"symbol {sid}: local data must map places to [re, im] pairs"
        if not isinstance(pairs, dict):
            raise ValueError(error)
        params = complex_pairs(list(pairs.values()), 3, error) if pairs else []
        syms[sid] = CuspidalSymbol(sid, degree, dual, cc, [int(q) for q in pairs], params)
    for sid in list(syms):
        sym = syms[sid]
        syms[sym.dual_id] = _dual_of(sym, syms.get(sym.dual_id))
    registry = SymbolRegistry()
    for sym in syms.values():
        registry._insert(sym)
    return registry


def descriptor_from_json(doc: dict, registry: SymbolRegistry) -> GSp4Descriptor:
    if not isinstance(doc, dict):
        raise ValueError("a descriptor must be an object")
    terms = doc.get("isobaric")
    if not terms:
        ids = doc.get("terms") or []
        terms = [{"term": t, "r": "0"} for t in ids] if isinstance(ids, list) else None
    if not isinstance(terms, list) or not all(isinstance(t, dict) and isinstance(t.get("term"), str) for t in terms):
        raise ValueError('descriptor terms must be a list of {"term": id, "r": exponent} objects')
    if not all(isinstance(doc.get(k) or "", str) for k in ("gross_char", "omega")):
        raise ValueError("gross_char and omega must be strings")
    try:
        twists = [Fraction(str(item.get("r", "0"))) for item in terms]
    except ZeroDivisionError:
        raise ValueError("twist exponent has a zero denominator") from None
    if any(twists):
        raise NotUnitaryNormalized(
            "unitary_normalization: descriptor terms must carry twist 0"
        )
    symbols = [registry.get(item["term"]) for item in terms]
    from_gso = bool(doc.get("from_gso"))
    if from_gso:
        if len(symbols) != 2:
            raise ValueError("lifted descriptor needs exactly two terms")
        gross = doc.get("gross_char") or symbols[0].central_char_id
        omega = doc.get("omega") or gross
        return GSp4Descriptor(True, omega, pair=(symbols[0], symbols[1]), gross_char_id=gross)
    if len(symbols) != 1:
        raise ValueError("non-lifted descriptor needs exactly one degree-4 term")
    omega = doc.get("omega") or "1"
    return GSp4Descriptor(False, omega, cuspidal=symbols[0])


def load_document(doc: dict | str) -> tuple[SymbolRegistry, list[GSp4Descriptor]]:
    """Load a representation document: symbol table plus descriptors.

    Accepts either the flat single-descriptor form (top-level ``isobaric``
    and ``from_gso`` keys) or a ``descriptors`` array for multi-descriptor
    files.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    registry = registry_from_json(doc.get("symbols", []))
    descriptors = []
    if "descriptors" in doc:
        if not isinstance(doc["descriptors"], list):
            raise ValueError("descriptors must be a list of objects")
        for item in doc["descriptors"]:
            descriptors.append(descriptor_from_json(item, registry))
    elif "isobaric" in doc or "terms" in doc:
        descriptors.append(descriptor_from_json(doc, registry))
    return registry, descriptors
