"""Formal calculus of cuspidal symbols and isobaric sums.

Cuspidal representations are formal symbols: an opaque id, a degree, a
pointer to the contragredient symbol, a central-character id, and sampled
unramified local parameter multisets.  Symbols live in an append-only
registry.  On top of them: isobaric sums of symbols and their duals, the
bilinear Rankin-Selberg factorization, the exact pole order at s = 1, the shape
lemma for transfers of unitary cuspidal data (only (4; 0) and (2, 2; 0, 0)
are admissible), which judges the twists of every document descriptor, the
case analysis for pairs of degree-4 descriptors, and association matching
of cuspidal lists from local data.

Equivalence of symbols is decided by symbol identity plus, when local data
is present, agreement of local parameter multisets at all commonly sampled
places; strong multiplicity one is what justifies a.e.-local equality as
the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .satake import (
    FLOAT_TOL,
    CentralCharMismatch,
    check_places,
    clipped,
    clipped_repr,
    complex_pairs,
    doc_field,
    match_multiset_rows,
    perfect_matching,
    place_array,
    rational,
    within_tol,
)


class NotUnitaryNormalized(ValueError):
    """A document descriptor's twist exponents do not vanish, as those of a
    transfer of unitary cuspidal data must.  ``reason`` is the shape lemma's,
    when ``validate_transfer_shape`` refused the twists."""

    constraint = "unitary_normalization"
    reason: str | None = None


class ConstituentsNotDistinct(ValueError):
    """The two degree-2 constituents of a lifted datum must be non-isomorphic."""

    constraint = "distinct_constituents"


class InsufficientLocalData(ValueError):
    """A sampled place is missing local parameters."""


def _label(sid) -> str:
    """"symbol <id>", as a message names a symbol: the id by ``clipped``."""
    return "symbol " + clipped(str(sid))


def inverse_char_id(cc: str) -> str:
    """Id of the inverse central character; the trivial character is '1'."""
    if cc == "1":
        return "1"
    return cc[1:] if cc.startswith("~") else "~" + cc


def _frozen(values, dtype) -> bool:
    """Whether ``values`` is a read-only array of ``dtype`` that owns its memory."""
    return (isinstance(values, np.ndarray) and values.dtype == dtype
            and not values.flags.writeable and values.flags.owndata)


@dataclass(frozen=True, eq=False)
class CuspidalSymbol:
    """A formal cuspidal representation with sampled local Satake data.

    Local data is stored once, as two read-only arrays: ``qs`` (int64,
    shape (P,), the sampled residue cardinalities in ascending order) and
    ``params`` (complex128, shape (P, degree)).  It is float only; exact
    forms live on ``satake`` parameters, not on symbols.

    An input array of the stored dtype that is read-only and owns its
    memory is kept as it is, not copied: its maker has frozen it, so
    symbols may share it, as every synthetic symbol at one X shares the
    sieved primes.  Anything else, a writeable array, a read-only view or
    a sequence, is copied, so that no later write to the input reaches the
    symbol.
    """

    id: str
    degree: int
    dual_id: str
    central_char_id: str
    qs: np.ndarray
    params: np.ndarray
    _registry: "SymbolRegistry | None" = field(default=None, repr=False)

    def __post_init__(self):
        label = _label(self.id)
        if self.degree not in (1, 2, 3, 4):
            raise ValueError(f"{label}: degree must be in 1..4, got {self.degree}")
        qs = self.qs if _frozen(self.qs, np.int64) and self.qs.ndim == 1 else place_array(self.qs, label)
        params = self.params if _frozen(self.params, np.complex128) else np.array(self.params, dtype=complex)
        if params.shape == (len(qs) * self.degree,):  # the flat form, place by place
            params = params.reshape(len(qs), self.degree)
        if params.ndim != 2 or len(params) != len(qs):
            raise ValueError(f"{label}: parameters of shape {params.shape}, expected ({len(qs)}, {self.degree})")
        if params.shape[1] != self.degree:
            raise ValueError(f"{label}: {params.shape[1]} parameters per place, expected {self.degree}")
        ascending = (qs[1:] > qs[:-1]).all()
        if not ascending:  # places that come ascending, as sieved primes do, need no gather
            order = np.argsort(qs)
            qs, params = qs[order], params[order]
        try:
            check_places(qs)
        except ValueError as exc:
            raise ValueError(f"{label}: {exc}") from None
        duplicate = not ascending and (qs[1:] == qs[:-1]).any()
        if duplicate or not params.all():
            raise ValueError(f"{label}: a place is sampled twice or a parameter is zero")
        # every later use (duals, chains, JSON output) needs finite values whose
        # inverses, the dual's values, are finite with finite inverses in turn.
        # A range test settles that without dividing: for m = max(|re z|, |im z|)
        # in [2^-500, 2^500], z is finite and |z|^2 in [m^2, 2 m^2] is a normal
        # double, so 1/z = conj(z) / |z|^2 has parts at most 1/m <= 2^500 and
        # modulus at least 1 / (sqrt(2) m) >= 2^-500.5; its own max(|re|, |im|)
        # is then in [2^-501, 2^500], and 1/(1/z) has parts at most 2^501.
        # numpy's complex division (Smith's) scales by a denominator between m
        # and 2 m, far from overflow and underflow.  Data outside the range
        # takes the divisions, which name the first bad place.
        magnitude = np.maximum(np.abs(params.real), np.abs(params.imag))
        if params.size and not (2.0**-500 <= magnitude.min() and magnitude.max() <= 2.0**500):
            with np.errstate(all="ignore"):
                inverse = 1 / params
                for values, fault in ((params, "is not finite"),
                                      (inverse, "has no finite inverse"),
                                      (1 / inverse, "has an inverse that is zero or has no finite inverse")):
                    finite = np.isfinite(values)
                    if not finite.all():
                        q = int(qs[~finite.all(axis=1)][0])
                        raise ValueError(f"{label}: a local parameter at q={q} {fault}")
        qs.flags.writeable = params.flags.writeable = False
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "params", params)

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
            raise ValueError(f"{_label(self.id)} is not attached to a registry")
        return self._registry.get(self.dual_id)


def _first_mismatch(qs: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> int | None:
    """The smallest q whose rows of xs and ys differ as multisets, or None."""
    bad = ~match_multiset_rows(xs, ys)
    return int(qs[bad][0]) if bad.any() else None


def rows_at(sym: CuspidalSymbol, qs: np.ndarray) -> np.ndarray | slice:
    """Rows of the places ``qs`` in the symbol's local data, as an index for
    ``sym.params``; every q must be sampled.

    When ``qs`` is a run of the symbol's places, ``sym.qs[lo:lo + len(qs)]``,
    as a sweep window over sieved primes is, the rows are that slice, found by
    one binary search; any other ``qs`` gets an array of rows."""
    lo = int(np.searchsorted(sym.qs, qs[0])) if len(qs) else 0
    if np.array_equal(sym.qs[lo:lo + len(qs)], qs):
        return slice(lo, lo + len(qs))
    rows = np.searchsorted(sym.qs, qs)
    missing = np.append(sym.qs, 0)[rows] != qs
    if missing.any():
        raise InsufficientLocalData(f"{_label(sym.id)} has no local data at q={qs[missing][0]}")
    return rows


def _dual_of(sym: CuspidalSymbol, declared: CuspidalSymbol | None = None) -> CuspidalSymbol:
    """The contragredient of ``sym``.

    A self-dual symbol is its own, once its data is checked to be
    inverse-closed.  A ``declared`` dual must name ``sym`` as its dual and be
    entrywise inverse to it at shared places; it comes back with the inverse
    of ``sym``'s data added at places only ``sym`` samples.  Otherwise the
    dual is a new symbol with the inverse data and central character.  The
    symbol's constructor has checked that its inverse data is finite and
    nonzero, so the one division here cannot overflow.
    """
    inverse = 1 / sym.params
    inverse.flags.writeable = False  # a new array, which the dual keeps (see CuspidalSymbol)
    if sym.is_self_dual:
        q = _first_mismatch(sym.qs, sym.params, inverse)
        if q is not None:
            raise ValueError(f"{_label(sym.id)}: local data at q={q} is not inverse-closed, "
                             "cannot be self-dual")
        return sym
    if declared is None:
        cc = inverse_char_id(sym.central_char_id)
        return CuspidalSymbol(sym.dual_id, sym.degree, sym.id, cc, sym.qs, inverse)
    if declared.dual_id != sym.id:
        name = clipped(str(sym.id))
        raise ValueError(f"dual of dual of {name} is not {name}")
    common, i, j = np.intersect1d(sym.qs, declared.qs, assume_unique=True, return_indices=True)
    q = _first_mismatch(common, declared.params[j], inverse[i])
    if q is not None:
        raise ValueError(f"local data of {clipped(str(sym.id))} and {clipped(str(declared.id))} at q={q} "
                         "are not entrywise inverse")
    extra = ~np.isin(sym.qs, declared.qs)
    qs = np.concatenate([declared.qs, sym.qs[extra]])
    params = np.concatenate([declared.params, inverse[extra]])
    qs.flags.writeable = params.flags.writeable = False  # new arrays, which the symbol keeps
    return replace(declared, qs=qs, params=params)


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

    def _insert(self, *syms: CuspidalSymbol) -> None:
        """Register all of ``syms`` or, when an id is taken, none of them."""
        for sym in syms:
            if sym.id in self._symbols:
                raise ValueError(f"symbol id {clipped_repr(sym.id)} already registered")
        for sym in syms:
            object.__setattr__(sym, "_registry", self)
            self._symbols[sym.id] = sym

    def create(
        self,
        sid: str,
        degree: int,
        *,
        central_char: str = "1",
        self_dual: bool = False,
        qs: Sequence[int] = (),
        params: Sequence[Sequence[complex]] = (),
    ) -> CuspidalSymbol:
        """Create a symbol together with its contragredient.

        ``qs`` are the sampled places and ``params`` holds one row of
        ``degree`` complex parameters per place, as ``CuspidalSymbol`` takes
        them.  Unless ``self_dual`` is set, the dual symbol, with id
        ``sid + "^"``, is materialized with the entrywise-inverse local data
        and the inverse central character.  Self-dual creation requires every
        sampled multiset to be closed under inversion.  Nothing is registered
        when either id is taken.
        """
        sym = CuspidalSymbol(sid, degree, sid if self_dual else sid + "^", central_char, qs, params)
        dual = _dual_of(sym)
        self._insert(*((sym,) if dual is sym else (sym, dual)))
        return sym


# ---------------------------------------------------------------------------
# Isobaric sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsobaricRep:
    """Isobaric sum of cuspidal symbols, each untwisted: the shape lemma
    admits no twist in a transfer of unitary cuspidal data."""

    constituents: tuple[CuspidalSymbol, ...]

    def __post_init__(self):
        if not self.constituents:
            raise ValueError("isobaric sum needs at least one constituent")

    @property
    def degree(self) -> int:
        return sum(sym.degree for sym in self.constituents)


def isobaric(symbols: Iterable[CuspidalSymbol]) -> IsobaricRep:
    """Isobaric sum of the given symbols."""
    return IsobaricRep(tuple(symbols))


def dual(rep: IsobaricRep) -> IsobaricRep:
    """Termwise contragredient."""
    return IsobaricRep(tuple(sym.dual() for sym in rep.constituents))


def reps_equivalent(r1: IsobaricRep, r2: IsobaricRep) -> bool:
    """Equality of isobaric sums up to reordering of constituents."""
    if len(r1.constituents) != len(r2.constituents):
        return False
    adj = [[j for j, other in enumerate(r2.constituents) if equivalent(sym, other)] for sym in r1.constituents]
    return perfect_matching(adj) is not None


def rs_factorization(r1: IsobaricRep, r2: IsobaricRep) -> list[tuple[CuspidalSymbol, CuspidalSymbol]]:
    """Full bilinear expansion: one (sigma, tau) factor per constituent pair."""
    return [(s1, s2) for s1 in r1.constituents for s2 in r2.constituents]


@dataclass(frozen=True)
class PoleReport:
    """Exact pole order at s = 1 with one witness pair per unit of order."""

    witnesses: tuple[tuple[int, int], ...]

    @property
    def order(self) -> int:
        return len(self.witnesses)


def pole_order_at_one(r1: IsobaricRep, r2: IsobaricRep) -> PoleReport:
    """Pole order of the pairing at s = 1.

    A constituent pair (i, j) contributes a simple pole exactly when the
    j-th constituent of r2 is the contragredient of the i-th constituent of
    r1; the order is additive over pairs.
    """
    witnesses = []
    for i, s1 in enumerate(r1.constituents):
        s1d = s1.dual()
        for j, s2 in enumerate(r2.constituents):
            if equivalent(s2, s1d):
                witnesses.append((i, j))
    return PoleReport(tuple(witnesses))


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
    product, the central value.  The lift and the embedding only reorder the
    four GL(2) entries, so ``gsp4`` and ``gl4`` hold slots, indices 0..3 of
    (alpha_1, beta_1, alpha_2, beta_2) in ``gl2[p].ravel()``: ``gsp4[p]`` are
    those of the lifted parameter rendered as (t1, t2, t3, t4), similitude
    ``mu[p, 0]``, and ``gl4[p]`` those of its embedded multiset in canonical
    order.  ``commutes[p]`` says whether that multiset matches the direct
    transfer of the torus data (mu, alpha_1, alpha_2).
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
        entries = gl2.reshape(-1, 4)
        x = 2 * np.arange(2) + _before(b, a)  # slot of each sorted pair's first entry
        first = np.take_along_axis(entries, x, axis=1)
        swap = _before(first[:, 1], first[:, 0])[:, None]
        x = np.where(swap, x[:, ::-1], x)  # pairs sorted by first entry
        y = x ^ 1  # slot of each pair's second entry
        embedded = np.stack([x[:, 0], y[:, 0], x[:, 1], y[:, 1]], axis=1)
        values = np.take_along_axis(entries, embedded, axis=1)
        gl4 = np.take_along_axis(embedded, np.lexsort((values.imag, values.real)), axis=1)
        commutes = match_multiset_rows(values, direct)
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
    sample: Iterable[int],
) -> tuple[int, ...] | None:
    """Match two cuspidal lists up to permutation from sampled local data.

    Returns phi with list2[j] equivalent to list1[phi[j]] (degrees match and
    local parameter multisets agree at every sampled place), or None when
    the lists are not associate.  Missing local data at a sampled place
    raises InsufficientLocalData.
    """
    qs = np.unique(place_array(list(sample), "associate_match"))
    check_places(qs)
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


def registry_from_json(symbols: Sequence[dict]) -> SymbolRegistry:
    """Rebuild a registry from its document form.

    Undeclared duals are materialized with entrywise-inverse local data;
    declared duals are checked for mutually inverse multisets at shared
    places and backfilled at places only one side declares.  Self-dual
    symbols must carry inverse-closed multisets.  An id may be declared once,
    and a place key must be ASCII decimal digits.
    """
    if not isinstance(symbols, list) or not all(isinstance(d, dict) for d in symbols):
        raise ValueError("symbols must be a list of objects")
    syms: dict[str, CuspidalSymbol] = {}
    for doc in symbols:
        sid, degree, dual = doc.get("id"), doc.get("degree"), doc.get("dual")
        cc, pairs = doc_field(doc, "central_char", "1"), doc_field(doc, "local", {})
        if not all(isinstance(x, str) for x in (sid, dual, cc)):
            raise ValueError(f"symbol {clipped_repr(sid)}: id, dual and central_char must be strings")
        if sid in syms:
            raise ValueError(f"symbol id {clipped_repr(sid)} declared twice")
        label = _label(sid)
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError(f"{label}: degree must be an integer, got {clipped_repr(degree)}")
        error = f"{label}: local data must map places to [re, im] pairs"
        if not isinstance(pairs, dict):
            raise ValueError(error)
        params = complex_pairs(list(pairs.values()), 3, error) if pairs else []
        # one pass over all keys: int() alone takes "+13" or " 13 ", and isascii()
        # comes first so that encode() cannot fail on a lone surrogate
        digits = "".join(pairs)
        if pairs and not (digits.isascii() and digits.encode().isdigit() and "" not in pairs):
            bad = next(k for k in pairs if not (k.isascii() and k.isdigit()))
            raise ValueError(f"{label}: place key {clipped(ascii(bad))} is not a decimal integer")
        try:
            places = list(map(int, pairs))
        except ValueError:  # int() reads at most 4300 digits; leading zeros aside, far beyond int64
            raise ValueError(f"{label}: a place is beyond the int64 range") from None
        syms[sid] = CuspidalSymbol(sid, degree, dual, cc, places, params)
    for sid in list(syms):
        sym = syms[sid]
        syms[sym.dual_id] = _dual_of(sym, syms.get(sym.dual_id))
    registry = SymbolRegistry()
    registry._insert(*syms.values())
    return registry


def descriptor_from_json(doc: dict, registry: SymbolRegistry) -> GSp4Descriptor:
    """The descriptor of one document entry.  Its twists form a shape, (2, 2; r1, r2)
    lifted or (4; r) cuspidal, that ``validate_transfer_shape`` judges; a nonzero
    twist on a wrong number of terms is refused too, before the count."""
    if not isinstance(doc, dict):
        raise ValueError("a descriptor must be an object")
    terms = doc.get("isobaric")
    if terms is None:  # absent or null: the ids of "terms", each with twist 0
        ids = doc_field(doc, "terms", [])
        terms = [{"term": t} for t in ids] if isinstance(ids, list) else None
    if not isinstance(terms, list) or not all(isinstance(t, dict) and isinstance(t.get("term"), str) for t in terms):
        raise ValueError('descriptor terms must be a list of {"term": id, "r": exponent} objects')
    gross, omega = doc.get("gross_char"), doc.get("omega")  # absent or null: the default
    if not all(isinstance(v, str | None) for v in (gross, omega)):
        raise ValueError("gross_char and omega must be strings")
    from_gso = doc_field(doc, "from_gso", False)
    if not isinstance(from_gso, bool):
        raise ValueError("from_gso must be true or false")
    # every twist is read, so a malformed one is refused even after a nonzero one
    twists = sorted((rational(doc_field(item, "r", "0"), "twist exponent r") for item in terms), reverse=True)
    degree = 2 if from_gso else 4
    if degree * len(twists) == 4:
        verdict = validate_transfer_shape([(degree, r) for r in twists])
        if not verdict.admissible:
            error = NotUnitaryNormalized(f"unitary_normalization: {verdict.reason}")
            error.reason = verdict.reason
            raise error
    elif any(twists):
        # no degree-4 shape: the term count is refused below, but a nonzero twist first
        raise NotUnitaryNormalized("unitary_normalization: descriptor terms must carry twist 0")
    unknown = next((item["term"] for item in terms if item["term"] not in registry), None)
    if unknown is not None:
        raise ValueError(f"descriptor term {clipped_repr(unknown)} is not a declared symbol")
    symbols = [registry.get(item["term"]) for item in terms]
    if from_gso:
        if len(symbols) != 2:
            raise ValueError("lifted descriptor needs exactly two terms")
        gross = symbols[0].central_char_id if gross is None else gross
        omega = gross if omega is None else omega
        return GSp4Descriptor(True, omega, pair=(symbols[0], symbols[1]), gross_char_id=gross)
    if len(symbols) != 1:
        raise ValueError("non-lifted descriptor needs exactly one degree-4 term")
    return GSp4Descriptor(False, "1" if omega is None else omega, cuspidal=symbols[0])


def load_document(doc: dict) -> tuple[SymbolRegistry, list[GSp4Descriptor]]:
    """Load a decoded representation document: symbol table plus descriptors.

    Accepts either the flat single-descriptor form (top-level ``isobaric``
    and ``from_gso`` keys) or a ``descriptors`` array for multi-descriptor
    files; ``descriptors`` null reads as absent.  Text is refused as any
    other document that is not an object.
    """
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    registry = registry_from_json(doc_field(doc, "symbols", []))
    descriptors = []
    items = doc_field(doc, "descriptors", None)
    if items is not None:
        if not isinstance(items, list):
            raise ValueError("descriptors must be a list of objects")
        for item in items:
            descriptors.append(descriptor_from_json(item, registry))
    elif "isobaric" in doc or "terms" in doc:
        descriptors.append(descriptor_from_json(doc, registry))
    return registry, descriptors
