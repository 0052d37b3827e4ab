"""Finite-field laboratory for orthogonal similitude groups of rank 4.

Everything is over F_q with q a small odd prime, elements represented as
canonical integer residues 0..q-1.  The quadratic form is fixed as the
identity Gram matrix, so similitude membership is the plain condition
m^t m = lambda * I.

The pair map sends (g1, g2) to the matrix of X -> g1 X g2^t on M_2(F_q)
(the tensor-square action; see _beta_codes for the relation to the
transpose-on-the-left convention).  That map multiplies the determinant
form by det(g1) det(g2), and det is isometric to the standard form x.x in
dimension 4 over any odd F_q (same dimension and square-class of
discriminant).  We realize the isometry by an explicit det-orthonormal
frame of M_2 built from a solution of a^2 + b^2 = -1, and conjugate the
raw Kronecker matrix g1 (x) g2 into those coordinates; the result is a
genuine element of GO(4, F_q) with similitude factor det(g1) det(g2).

Group elements exist only as integer codes: the base-q digits of a
flattened 4x4 matrix.  The module lists SO(4, F_q) once, in closed form,
as frames times SO(3): one element R_c with first column c for each unit
vector c, times 1 (+) N for N in SO(3, F_q) (see _o4_columns).  The
det = lambda^2 half of each similitude class of GO(4, F_q) is the coset
g SO(4), g a fixed similitude of factor lambda and det lambda^2 (see
enumerate_go4_codes); the other half, det = -lambda^2, is counted, not
listed.  It computes kernel and image of the pair map as codes over
T x GL(2), T a transversal of the scalars in GL(2) (a scalar moves between
the factors, so these pairs reach the whole image and every kernel pair up
to a scalar), and the image of SL(2) x SL(2) over SL(2) x T+-, T+- a
transversal of {+-1} in SL(2): beta(t, g) = L(t) R(g), and a table of L(t)
applied to the few distinct columns of the R(g), one float32 BLAS product
that is exact on these small integers, gives every code by four gathers of
whole table rows (see _beta_codes and _pair_codes).  It compares the two
sides one similitude class at a time, each pulled back to SO(4) by g^-1
and compared with the one sorted SO(4), and packages the comparison into a
report (see verify_gso_presentation).  q is restricted to odd primes (characteristic 2
breaks the symmetric-form theory) and to q <= 13 for exhaustive work:
codes are int64 while q^16 < 2^63, which fails at q = 17.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

SUPPORTED_Q = (3, 5, 7, 11, 13)


class UnsupportedField(ValueError):
    """q outside the supported odd primes {3, 5, 7, 11, 13}."""


def _modinv(a: int, q: int) -> int:
    return pow(a % q, q - 2, q)


def _two_squares(t: int, q: int) -> tuple[int, int]:
    """Smallest (a, b) with a^2 + b^2 = t mod q; exists for every t when q is odd.

    The q + 1 residues a^2 and t - b^2 (each (q + 1) / 2 of them) cannot be
    all distinct in F_q, so some a^2 = t - b^2.
    """
    for a in range(q):
        for b in range(q):
            if (a * a + b * b - t) % q == 0:
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
    a, b = _two_squares(q - 1, q)
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
    # inverse of C from orthonormality: C^-1 = C^t G; checking it checks
    # C^t G C = I, the same matrix mod q
    Cinv = (C.T @ G) % q
    if not np.array_equal((Cinv @ C) % q, np.eye(4, dtype=np.int64)):
        raise ArithmeticError(f"determinant frame for a, b = {a}, {b} is not orthonormal mod {q}")
    return C, Cinv


# ---------------------------------------------------------------------------
# Exhaustive machinery (integer-coded, vectorized)
# ---------------------------------------------------------------------------


def gl2_elements(q: int) -> np.ndarray:
    """All of GL(2, F_q) as an (n, 2, 2) int64 array in lexicographic entry order."""
    m = np.indices((q, q, q, q), dtype=np.int64).reshape(4, -1)  # columns (a, b, c, d) in lex order
    return m.T[(m[0] * m[3] - m[1] * m[2]) % q != 0].reshape(-1, 2, 2)


def _leading_entries(mats: np.ndarray) -> np.ndarray:
    """The first nonzero entry, row-major, of each matrix of a (k, 2, 2) array."""
    flat = mats.reshape(len(mats), 4)
    return flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]


def _scalar_transversal(mats: np.ndarray) -> np.ndarray:
    """The rows of mats whose first nonzero entry, row-major, is 1.

    Each scalar class {c g : c in F_q^*} of GL(2) holds exactly one such
    element, so on gl2_elements(q) this is a transversal of the scalars,
    with n / (q - 1) elements.
    """
    return mats[_leading_entries(mats) == 1]


def _sign_transversal(mats: np.ndarray, q: int) -> np.ndarray:
    """The rows of mats whose first nonzero entry, row-major, lies in 1..(q - 1) / 2.

    g and -g have first nonzero entries e and q - e, and exactly one of
    them lies there for odd q; so on a set closed under g -> -g, such as
    SL(2), this is a transversal of {+-1}, with half its elements.
    """
    return mats[2 * _leading_entries(mats) < q]


def _encode(flat: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of flattened 4x4 matrices; fits in int64 for q <= 13 (q^16 < 2^63)."""
    powers = q ** np.arange(16, dtype=np.int64)
    return flat.astype(np.int64) @ powers


def _decode(code: int, q: int) -> tuple[tuple[int, ...], ...]:
    digits = []
    for _ in range(16):
        digits.append(int(code % q))
        code //= q
    return tuple(tuple(digits[4 * i : 4 * i + 4]) for i in range(4))


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q, in [0, q), for an integer array, by floor division.

    numpy vectorizes integer floor division by a scalar but not the
    remainder: on 451 584 int32 entries this takes 0.55 ms and x % q 4.4 ms
    (numpy 2.4, 2-vCPU x86 machine).
    """
    return x - q * (x // q)


@lru_cache(maxsize=None)
def _factor_bases(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The images of the matrix units under L and R, as (4, 16) float32 arrays.

    Row 2a + b of the first is L(E_ab) = C^-1 (E_ab (x) I) C mod q, of the
    second R(E_ab) = C^-1 (I (x) E_ab) C mod q, each flattened row-major,
    C the frame of _det_frame.  L and R are linear, so L(g) mod q is
    sum_ab g_ab L(E_ab) mod q: one (k, 4) @ (4, 16) product for k matrices.
    """
    C, Cinv = _det_frame(q)
    units = np.eye(4, dtype=np.int64).reshape(4, 2, 2)  # E_ab at 2a + b
    eye = np.eye(2, dtype=np.int64)[None]
    left = (Cinv @ np.kron(units, eye) @ C) % q
    right = (Cinv @ np.kron(eye, units) @ C) % q
    return left.reshape(4, 16).astype(np.float32), right.reshape(4, 16).astype(np.float32)


def _factors(mats: np.ndarray, basis: np.ndarray, q: int) -> np.ndarray:
    """The (k, 4, 4) images of a (k, 2, 2) array under the linear map with the given basis images, mod q.

    One float32 product: its entries are sums of 4 products of residues,
    at most 4 (q - 1)^2 = 576 < 2^24 at q = 13, so float32 holds every
    partial sum exactly, and so does the int16 that reduces them.
    """
    entries = (mats.reshape(-1, 4).astype(np.float32) @ basis).astype(np.int16)
    return _mod(entries, q).reshape(-1, 4, 4)


def _left_factors(left: np.ndarray, q: int) -> np.ndarray:
    """L(g) = C^-1 (g (x) I) C mod q for each g of a (k, 2, 2) array, as (k, 4, 4) float32."""
    return _factors(left, _factor_bases(q)[0], q).astype(np.float32)


def _right_columns(right: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns u_c of the R(h) = C^-1 (I (x) h) C mod q, h in a (m, 2, 2) array.

    Returns (cols, col): cols (4, u) float32, column c is u_c, and col
    (m, 4), col[j, s] the index c of column s of R(right[j]).
    """
    rhs = _factors(right, _factor_bases(q)[1], q)  # (m, 4, 4)
    digits = q ** np.arange(4)
    distinct, col = np.unique(rhs.transpose(0, 2, 1) @ digits, return_inverse=True)  # base-q codes of the columns
    return (distinct // digits[:, None] % q).astype(np.float32), col.reshape(len(right), 4)


def _pair_codes(frame: np.ndarray, lhs: np.ndarray, cols: np.ndarray, col: np.ndarray, q: int) -> np.ndarray:
    """Codes of frame L(g) R(h) for g, h over left x right, from _left_factors and _right_columns.

    frame is a (4, 4) integer matrix: the identity for the pair map itself,
    or the inverse of a coset representative to pull a class back to SO(4)
    coordinates (see verify_gso_presentation).  It is folded into the k left
    factors first: lhs[i] becomes (frame lhs[i]) mod q.  Then
    codes[j * k + i] is the code of lhs[i] times R(right[j]), whose column s
    is lhs[i] applied to u_c, c = col[j, s]: the codes come right-major,
    one row of k codes for each of the m right factors.  A column table
    comes first: table[c, i] = sum_r ((lhs[i] u_c) mod q)_r q^(4r), the code
    of that column placed in column 0.  Every (lhs[i] u_c)_r comes from one
    float32 product, the (u, 4) columns times the 4k rows of the folded left
    factors, transposed; each entry and each partial sum is an integer of at
    most 4 (q - 1)^2 = 576 < 2^24 (q = 13), so float32 holds it exactly, and
    so does the fold, a product of residues with the same bound.  One int16
    reduction mod q and a four-row combine give the int64 table, (u, k) so
    that each gather below copies whole rows.  Then
    code(i, j) = sum_s q^s table[col[j, s], i]: four gathers of m rows.
    """
    k, u = len(lhs), cols.shape[1]
    folded = frame.astype(np.float32) @ lhs.transpose(1, 0, 2).reshape(4, 4 * k)  # (r, (i, t)): frame lhs[i]
    folded = _mod(folded.astype(np.int16), q).astype(np.float32).reshape(4 * k, 4)  # rows (r, i), columns t
    entry = _mod((cols.T @ folded.T).astype(np.int16), q).reshape(u, 4, k)  # (c, r, i); the float32 is freed
    table = entry[:, 3].astype(np.int64)
    for r in (2, 1, 0):
        table *= q**4
        table += entry[:, r]
    del entry
    codes = table[col[:, 0]]                      # (m, k); code = sum of beta[r, s] q^(4r + s) < q^16
    gathered = np.empty_like(codes)
    for s in range(1, 4):
        np.take(table, col[:, s], axis=0, out=gathered)
        gathered *= q**s
        codes += gathered
    return codes.reshape(-1)


def _beta_codes(left: np.ndarray, right: np.ndarray, q: int) -> np.ndarray:
    """Codes of beta over left x right, (k, 2, 2) and (m, 2, 2) arrays of GL2 elements.

    codes[j * len(left) + i] is the code of
    beta(g, h) = C^-1 (g (x) h) C mod q for g = left[i], h = right[j], C the
    frame of _det_frame: right-major order.  The similitude factor of
    beta(g, h) is det(g) det(h) mod q and its determinant the square of that,
    so the image lies in the index-2 subgroup where det = lambda^2.

    beta(g1, g2) is the matrix of X -> g1 X g2^t on M_2, the tensor-square
    action v (x) w -> g1 v (x) g2 w under the rank-one identification
    v (x) w -> v w^t, which is the Kronecker product g1 (x) g2 in the
    matrix-unit basis.  (Writing the transpose on the first slot instead
    gives the same kernel and image with composition reversed; this
    orientation makes the map a homomorphism for left-to-right matrix
    products.)

    Since g1 (x) g2 = (g1 (x) I)(I (x) g2), beta(g1, g2) = L(g1) R(g2) mod q
    with L(g) = C^-1 (g (x) I) C and R(g) = C^-1 (I (x) g) C, so column s of
    beta(g, h) is L(g) applied to column s of R(h), mod q.  Over all of GL2
    the 4 |GL2| columns of the R(h) take only |GL2| distinct values (48,
    480, 2016 and 13 200 at q = 3, 5, 7 and 11), and over the h of one
    determinant |GL2| / (q - 1) of them; _pair_codes applies the L(g) to
    those distinct columns once and gathers the codes.

    A scalar moves between the factors: (c g1) (x) g2 = g1 (x) (c g2), so
    beta(c t, c^-1 g) = beta(t, g).  Every pair of GL2 x GL2 is
    (c t, c^-1 g) for exactly one c in F_q^*, t in the scalar transversal T
    of _scalar_transversal and g in GL2.  So beta(T x GL2) is the whole
    image, and the kernel has q - 1 pairs for each identity code there.
    """
    return _pair_codes(np.eye(4, dtype=np.int64), _left_factors(left, q), *_right_columns(right, q), q)


def _unit_vectors(q: int) -> np.ndarray:
    """The unit vectors of F_q^4, v.v = 1, in lexicographic order."""
    grids = np.indices((q, q, q, q)).reshape(4, -1).T  # lex order
    return grids[(grids * grids).sum(axis=1) % q == 1]


def _cross4(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Generalized cross product: x . v = det[a b c x] for every x.

    a, b, c hold T vectors as columns, shape (4, T); so does v, with
    integer entries (no reduction mod q) of a's dtype.
    """
    plucker = {(i, j): a[i] * b[j] - a[j] * b[i] for i in range(4) for j in range(i + 1, 4)}
    v = np.empty_like(a)
    for k in range(4):
        r0, r1, r2 = (i for i in range(4) if i != k)
        minor = c[r0] * plucker[r1, r2] - c[r1] * plucker[r0, r2] + c[r2] * plucker[r0, r1]
        v[k] = minor if k % 2 else -minor
    return v


def _det4(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """det [a b c d] for T quadruples of columns, each (4, T), without reduction mod q.

    The Laplace expansion along the 2 x 2 minors of columns (a, b) and their
    complementary minors of (c, d); it shares no code with _cross4.
    """
    total = np.zeros_like(a[0])
    for i, j, k, l, sign in ((0, 1, 2, 3, 1), (0, 2, 1, 3, -1), (0, 3, 1, 2, 1),
                             (1, 2, 0, 3, 1), (1, 3, 0, 2, -1), (2, 3, 0, 1, 1)):
        term = (a[i] * b[j] - a[j] * b[i]) * (c[k] * d[l] - c[l] * d[k])
        total += term if sign > 0 else -term
    return total


def _fourth_column(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray, q: int) -> np.ndarray:
    """The column c4 that completes orthonormal [c1 c2 c3] to SO(4), for T triples, each (4, T).

    The cross product v of the triple spans its orthogonal complement, and
    the adjugate identity gives v = det M c4 for either unit completion
    M = [c1 c2 c3 c4], det M = +-1.  So v is itself a unit vector and
    det [c1 c2 c3 v] = v . v = 1: c4 = v mod q.  c4 . v is still computed,
    and a value other than 1 raises ArithmeticError; so does a determinant
    other than 1 by the Laplace expansion of _det4, which does not go
    through the cross product.  c4 . v is the Gram determinant of the triple,
    1 - x^2 when c3 is a unit vector orthogonal to c1 with c2 . c3 = x, so a
    c3 not orthogonal to c2 is refused too.  On int32 coordinates mod q the
    cross product stays below 3 (q - 1)^3 (5184 at q = 13), c4 . v below
    12 (q - 1)^4 and the expansion below 6 (q - 1)^4.
    """
    v = _cross4(c1, c2, c3)
    c4 = _mod(v, q)
    if (_mod((c4 * v).sum(axis=0), q) != 1).any() or (_mod(_det4(c1, c2, c3, c4), q) != 1).any():
        raise ArithmeticError(f"a cross product of unit vectors mod {q} is not the unit vector completing SO(4)")
    return c4


def _o4_frames(pool: np.ndarray, q: int) -> np.ndarray:
    """One element R_c = [c c2 c3 c4] of SO(4, F_q) with first column c, for each unit vector c of the pool.

    c2 is the first unit vector of the pool orthogonal to c, c3 the first
    orthogonal to both, and c4 = _fourth_column(c, c2, c3).  Both exist: the
    orthogonal complement of a unit vector, or of an orthonormal pair, is
    nondegenerate of dimension 3 or 2, and a nondegenerate form of dimension
    at least 2 over F_q, q odd, represents 1.  Returns (n, 4, 4) int32,
    frames[i] the matrix R_c for c = pool[i].  The (n, n) inner products
    come from one float32 product, exact as each is at most 4 (q - 1)^2 = 576.
    """
    coords = pool.T.astype(np.int32)  # (4, n)
    units = pool.astype(np.float32)
    orth = _mod((units @ units.T).astype(np.int16), q) == 0
    i2 = orth.argmax(axis=1)
    i3 = (orth & orth[i2]).argmax(axis=1)
    c2, c3 = coords[:, i2], coords[:, i3]
    c4 = _fourth_column(coords, c2, c3, q)
    return np.stack([coords, c2, c3, c4], axis=2).transpose(1, 0, 2)


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cross product a x b of T pairs of columns, each (3, T), without reduction mod q."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """det [a b c] for T triples of columns, each (3, T), by the rule of Sarrus, without
    reduction mod q; it shares no code with _cross3."""
    return (a[0] * b[1] * c[2] + b[0] * c[1] * a[2] + c[0] * a[1] * b[2]
            - c[0] * b[1] * a[2] - b[0] * a[1] * c[2] - a[0] * c[1] * b[2])


def _so3_columns(q: int) -> tuple[np.ndarray, np.ndarray]:
    """SO(3, F_q) in closed form, as columns drawn from the unit vectors of F_q^3.

    Each orthonormal pair (u1, u2) of unit vectors is the first two columns
    of exactly one element [u1 u2 u3] of SO(3): u3 lies on the line
    orthogonal to both, and w = u1 x u2 spans it with
    w . w = (u1 . u1)(u2 . u2) - (u1 . u2)^2 = 1 and det [u1 u2 w] = w . w = 1,
    so u3 = w, the other unit vector -w having determinant -1.  So there are
    q (q^2 - 1) elements, one per pair.  u3 . u3 is still computed, and so is
    det [u1 u2 u3] by _det3, which does not go through the cross product; a
    value other than 1 of either raises ArithmeticError.

    Returns (units, cols): units (3, n3) int32, the unit vectors as columns
    in lexicographic order, and cols (3, s) int32, column j of element k
    being units[:, cols[j, k]].  Elements are in lexicographic order of the
    indices of (u1, u2).
    """
    grid = np.indices((q, q, q), dtype=np.int32).reshape(3, -1)  # every vector, as columns in lex order
    units = grid[:, _mod((grid * grid).sum(axis=0), q) == 1]
    k1, k2 = np.nonzero(_mod(units.T @ units, q) == 0)
    u1, u2 = units[:, k1], units[:, k2]
    u3 = _mod(_cross3(u1, u2), q)
    if (_mod((u3 * u3).sum(axis=0), q) != 1).any() or (_mod(_det3(u1, u2, u3), q) != 1).any():
        raise ArithmeticError(f"a cross product of orthonormal vectors mod {q} does not complete SO(3)")
    index = np.zeros(q**3, dtype=np.int32)
    index[(units[0] * q + units[1]) * q + units[2]] = np.arange(units.shape[1])
    return units, np.stack([k1, k2, index[(u3[0] * q + u3[1]) * q + u3[2]]]).astype(np.int32)


def _o4_columns(pool: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """SO(4, F_q) in closed form, as columns drawn from the pool of unit vectors.

    SO(4) is the disjoint union over unit vectors c of R_c (1 (+) SO(3)), R_c
    the frame of _o4_frames: M -> (M e1, R_c^-1 M), c = M e1, is a bijection
    from SO(4) onto those pairs.  P = R_c^-1 M lies in SO(4) and fixes e1;
    so P^t e1 = P^t P e1 = e1, P = 1 (+) N, N orthogonal with det N = 1.  The
    inverse is (c, 1 (+) N) -> R_c (1 (+) N), whose column 0 is c.  So
    SO(4) has n q (q^2 - 1) elements, n = len(pool), N running over the
    SO(3) of _so3_columns.  Column j >= 1 of R_c (1 (+) N) is R'_c u_j,
    R'_c = [c2 c3 c4] and u_j column j of N.  R'_c maps F_q^3 isometrically
    onto c's orthogonal complement, so it takes unit vectors to unit vectors:
    one (n, n3) table, table[i, k] the pool index of R'_c applied to the
    k-th unit vector of F_q^3, c = pool[i], and three gathers by the columns
    of the SO(3) elements give every element.  The table comes from one
    float32 product of the (4n, 3) rows of the R'_c with the (3, n3) unit
    vectors, exact as each entry is at most 3 (q - 1)^2 = 432.

    Returns (first, last): first holds c1 n + c2 and last c3 n + c4, pool
    indices of the columns as int32 flat indices of pool x pool
    (n^2 < 2^31), both (n s,), s = |SO(3)|.  Elements are c-major: c in pool
    order, then N in the order of _so3_columns.
    """
    n = len(pool)
    lex_rank = q ** np.arange(3, -1, -1, dtype=np.int64)
    pool_index = np.zeros(q**4, dtype=np.int32)
    pool_index[pool @ lex_rank] = np.arange(n)
    units, (k1, k2, k3) = _so3_columns(q)
    rows = _o4_frames(pool, q)[:, :, 1:].reshape(4 * n, 3).astype(np.float32)
    images = _mod((rows @ units.astype(np.float32)).astype(np.int16), q).reshape(n, 4, -1)  # (i, r, k)
    table = pool_index[lex_rank @ images]  # (n, n3)
    first = table[:, k1]
    first += n * np.arange(n, dtype=np.int32)[:, None]
    last = table[:, k2]
    last *= n
    last += table[:, k3]
    return first.ravel(), last.ravel()


def _coset_representative(q: int, lam: int) -> np.ndarray:
    """g = R (+) R, R = [[a, -b], [b, a]] with a^2 + b^2 = lam, or g = I for lam = 1, as (4, 4) int64.

    g^t g = lam I and det g = lam^2; a g that is not a similitude of factor
    lam raises ArithmeticError.
    """
    a, b = (1, 0) if lam == 1 else _two_squares(lam, q)
    g = np.kron(np.eye(2, dtype=np.int64), [[a, -b], [b, a]]) % q
    if not np.array_equal((g.T @ g) % q, lam * np.eye(4, dtype=np.int64)):
        raise ArithmeticError(f"coset representative for lambda = {lam} is not a similitude: {g.tolist()}")
    return g


def enumerate_go4_codes(q: int, lam: int, pool: np.ndarray, o4: tuple) -> tuple[np.ndarray]:
    """Closed-form enumeration of {m in GO(4, F_q) : m^t m = lam I, det m = lam^2} as (codes,).

    pool is _unit_vectors(q) and o4 the SO(4) columns that
    _o4_columns draws from it; the caller builds both once.  The class is a
    coset of O(4): with g = _coset_representative(q, lam), g^t g = lam I and
    det g = lam^2, so M -> g M is a bijection from O(4) onto the class, and
    det(g M) = lam^2 det M: g SO(4) is the det = lam^2 half listed here.
    M -> M diag(1, 1, 1, -1) maps it onto the det = -lam^2 half, so the
    class has twice as many elements.  Column j of g M is g c_j, so the code
    of g M is the code of the columns (g c1, g c2) plus q^2 times that of
    (g c3, g c4), both gathered from one table over pool x pool.  Column 0
    of every element is g c1, of norm lam: classes share no code.

    Elements come out in the order of their SO(4) factor M in o4 (for
    _o4_columns: c-major, then the SO(3) order), so the output order is
    deterministic.  Nothing here uses the pair map.
    """
    first, last = o4
    g = _coset_representative(q, lam)
    col_code = q ** (4 * np.arange(4, dtype=np.int64))  # code of a vector placed in column 0
    pool_code = ((pool @ g.T) % q) @ col_code      # code of g c in column 0, for each c in the pool
    pair_code = (pool_code[:, None] + q * pool_code).ravel()  # code of (g c, g c') in columns 0 and 1
    codes = pair_code[last]
    codes *= q * q
    codes += pair_code[first]
    return (codes,)  # a tuple, as perfbench/layers.py reads it: the codes first


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
            ("sl2_image_index_2", self.sl2_image_in_so and 2 * self.sl2_image_size == self.so_size),
        )

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def to_json(self) -> dict:
        """The fields, image_equals_gso under the key "equal", then checks and ok;
        counterexample only when there is one."""
        payload = {
            "equal" if f.name == "image_equals_gso" else f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "counterexample"
        }
        payload |= {"checks": dict(self.checks), "ok": self.ok}
        return payload | ({"counterexample": self.counterexample} if self.counterexample is not None else {})


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """np.unique by one sort and an adjacent compare; the sorted array itself when nothing repeats.

    On the 677 376 int64 pair-map codes at q = 7, numpy 2.4's hash-based
    np.unique took 0.67-0.76 s and this 0.01 s (2-vCPU x86 machine).
    """
    return _drop_repeats(np.sort(codes))


def _drop_repeats(codes: np.ndarray) -> np.ndarray:
    """A sorted array without its repeats, by an adjacent compare; the array itself when nothing repeats."""
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes if keep.all() else codes[keep]


def _in_sorted(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """np.isin(values, pool) for a sorted, duplicate-free pool, by one binary search.

    np.isin goes through the same hash-based unique as np.unique (see
    _sorted_unique): 0.067 s per q = 7 SL2 containment check.
    """
    at = np.searchsorted(pool, values)
    found = at < len(pool)  # values past the last element of pool are not in it
    found[found] = pool[at[found]] == values[found]
    return found


def _code_witness(check: str, side: str, code: int, q: int) -> dict:
    """A failed set check's offending code, decoded, with its lambda and det."""
    m = np.array(_decode(code, q), dtype=np.int64)
    det = m[:, 3] @ _cross4(m[:, :1], m[:, 1:2], m[:, 2:3])[:, 0]  # c4 . cross(c1, c2, c3)
    return {
        "check": check,
        "side": side,
        "code": code,
        "matrix": m.tolist(),
        "lam": int(m[:, 0] @ m[:, 0]) % q,
        "det": int(det) % q,
    }


def _column_norms(codes: np.ndarray, q: int) -> np.ndarray:
    """The norm of column 0 mod q of each code: lambda for an element of GO(4), as in _code_witness."""
    digits = [codes // q ** (4 * r) % q for r in range(4)]
    return sum(x * x for x in digits) % q


def _compare(image: np.ndarray, gso: np.ndarray) -> tuple[int, int, bool, tuple[int, str] | None]:
    """Sizes, equality and the least code of the symmetric difference, with its side,
    of sorted pair-map codes without repeats and sorted enumerated codes.

    Each side's codes outside the other are found by binary search (see
    _in_sorted), not by np.setxor1d and np.isin, whose hash-based unique
    took 39 of 43 s of a failing q = 11 run."""
    if len(image) == len(gso) and np.array_equal(image, gso):
        return len(image), len(gso), True, None
    extra = image[~_in_sorted(image, gso)][:1]  # the least image code not listed
    missing = gso[~_in_sorted(gso, image)][:1]  # the least listed code not in the image
    sides = [(int(code), side) for codes, side in ((extra, "image"), (missing, "gso")) for code in codes]
    return len(image), len(gso), False, min(sides, default=None)


def verify_gso_presentation(q: int) -> GsoPresentationReport:
    """Exhaustively compare the pair-map image with the det = lambda^2 set.

    Asserted facts: the kernel is exactly the scalar pairs (c I, c^-1 I),
    q - 1 of them; the image has size |GL2|^2 / (q - 1); the image equals
    the independently enumerated {g in GO(4) : det g = lambda^2}; and pairs
    of determinant-1 matrices land in {det = 1, lambda = 1}, as a subgroup
    of index 2.  A failed assertion is a report entry, not an exception; the
    report then carries the first offending item: a non-scalar kernel pair,
    or the least code of the symmetric difference of a failed set
    comparison, tagged with the side it came from ("image" or "gso"), or the
    least SL2 image code outside SO(4) ("sl2_image").  An enumeration that
    cannot be trusted raises ArithmeticError instead: a coset representative
    that is not a similitude, or a fourth column that does not complete SO(4)
    (see _o4_columns).

    The pair map runs on T x GL2, T the scalar transversal (see _beta_codes):
    that is the whole image, and kernel_size is q - 1 times the identity
    codes there.  The only scalar pair in T x GL2 is (I, I), so any other
    pair with the identity code is itself a non-scalar kernel pair; the
    counterexample is the first of them in row-major (t, g) order.
    SL2 x SL2 is mapped on its own, as SL2 x T+-, T+- the transversal of
    {+-1} of _sign_transversal: beta(g, -h) = beta(-g, h), so that is the
    same image from half the pairs.

    The comparison runs one similitude class lambda at a time, and drops
    each class before the next: the pairs (t, g) with det t det g = lambda,
    |T| |GL2| / (q - 1) of them, against the det = lambda^2 half of the
    class, the coset g_lambda SO(4), g_lambda = _coset_representative(q,
    lambda); the whole class, counted in go_size, is twice as large.  T and
    GL2 are split by det once, with the L(t) of each part and the R(g)
    columns of each part (see _pair_codes).  SO(4) is listed and sorted once
    (enumerate_go4_codes for lambda = 1), and each class is compared in SO(4)
    coordinates: its pair-map codes are pulled back by
    g_lambda^-1 = lambda^-1 g_lambda^t, folded into the left factors, and
    compared with those of SO(4).  M -> g_lambda^-1 M is a bijection of
    M_4(F_q), so the two sets are equal exactly when the image of the class
    is g_lambda SO(4), and the pulled-back codes are as many as the
    original ones.  Class 1 has g_lambda = I: its codes are the originals.
    A class lambda != 1 whose pulled-back codes differ is compared again in
    original coordinates, against g_lambda SO(4) as enumerate_go4_codes
    lists it; so every failing class is compared on its original sets.
    Every enumerated code of class lambda has column 0 of norm lambda, so
    the totals are those of one whole-set comparison: a class whose two sets
    differ passes its pair-map codes of another column norm on to that
    class, which is then compared again.

    Kernel pairs are found in original coordinates only, as the pairs with
    the identity code: in class 1, whose frame is I, and in every class
    compared again.  The pulled-back pass of a class lambda != 1 skips the
    search, and loses no kernel pair: if that class passes, its image is
    g_lambda SO(4), whose elements have column 0 of norm lambda, and I has
    column norm 1; if it fails, it is mapped again in original coordinates,
    where the search runs.  Codes come right-major from _pair_codes, so a
    hit at flat index j |T_d| + i of a block is the pair (t_i, g_j).
    """
    if q not in SUPPORTED_Q:
        raise UnsupportedField(f"q must be one of {SUPPORTED_Q}, got {q}")
    mats = gl2_elements(q)
    transversal = _scalar_transversal(mats)
    image_expected = len(mats) * len(mats) // (q - 1)
    t_dets, g_dets = ((m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % q for m in (transversal, mats))
    t_at = {d: np.flatnonzero(t_dets == d) for d in range(1, q)}  # indices into transversal, by det
    g_at = {e: np.flatnonzero(g_dets == e) for e in range(1, q)}  # indices into mats, by det
    lhs = {d: _left_factors(transversal[t], q) for d, t in t_at.items()}
    rhs = {e: _right_columns(mats[g], q) for e, g in g_at.items()}
    eye = np.eye(4, dtype=np.int64)
    eye_code = int(_encode(eye.reshape(1, 16), q)[0])
    pool = _unit_vectors(q)
    o4 = _o4_columns(pool, q)
    so_codes = enumerate_go4_codes(q, 1, pool, o4)[0]
    so_codes.sort()

    def image_of(lam: int, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted codes without repeats of frame beta(t, g) over the pairs with det t det g = lam,
        and, when frame is I, the (t, g) indices of the kernel pairs: those with the identity code."""
        search = np.array_equal(frame, eye)
        blocks, hits = [], [np.empty((0, 2), dtype=np.intp)]
        for d, t in t_at.items():
            e = lam * _modinv(d, q) % q
            g = g_at[e]
            codes = _pair_codes(frame, lhs[d], *rhs[e], q)
            if search:
                j, i = np.divmod(np.flatnonzero(codes == eye_code), len(t))  # codes come right-major
                hits.append(np.stack([t[i], g[j]], axis=1))
            blocks.append(codes)
        codes = np.concatenate(blocks)
        blocks.clear()
        codes.sort()  # in place: no second copy of the class's codes
        return _drop_repeats(codes), np.concatenate(hits)

    def gso_of(lam: int) -> np.ndarray:
        """Sorted det = lam^2 codes of the class, in original coordinates."""
        if lam == 1:
            return so_codes
        gso = enumerate_go4_codes(q, lam, pool, o4)[0]
        gso.sort()
        return gso

    hits, strays, compared = [], [], {}
    go_size = 0
    for lam in range(1, q):
        pull_back = _modinv(lam, q) * _coset_representative(q, lam).T % q  # I for lam = 1
        image_codes, class_hits = image_of(lam, pull_back)
        gso_codes = so_codes
        if lam != 1 and not np.array_equal(image_codes, so_codes):  # again, in original coordinates
            image_codes, class_hits = image_of(lam, eye)
            gso_codes = gso_of(lam)
        hits.append(class_hits)
        go_size += 2 * len(gso_codes)
        if not np.array_equal(image_codes, gso_codes):
            elsewhere = _column_norms(image_codes, q) != lam
            strays.append(image_codes[elsewhere])
            image_codes = image_codes[~elsewhere]
        compared[lam] = _compare(image_codes, gso_codes)
    strays = _sorted_unique(np.concatenate(strays or [np.empty(0, dtype=np.int64)]))
    stray_norms = _column_norms(strays, q)
    for lam in np.unique(stray_norms).tolist():
        extra = strays[stray_norms == lam]
        if lam == 0:  # not a similitude: no class holds it
            compared[0] = _compare(extra, extra[:0])
            continue
        image_codes = image_of(lam, eye)[0]
        image_codes = _sorted_unique(np.concatenate([image_codes[_column_norms(image_codes, q) == lam], extra]))
        compared[lam] = _compare(image_codes, gso_of(lam))
    image_size, gso_size, equal, witnesses = zip(*compared.values())
    image_equals_gso = all(equal)
    witness = min((w for w in witnesses if w is not None), default=None)  # the least code of all differences

    hits = np.concatenate(hits)
    hits = hits[np.lexsort(hits.T[::-1])]  # row-major (t, g) order
    kernel_pairs = np.stack([transversal[hits[:, 0]], mats[hits[:, 1]]], axis=1)  # (hits, 2, 2, 2)
    bad_pairs = kernel_pairs[~(kernel_pairs == np.eye(2, dtype=np.int64)).all(axis=(1, 2, 3))]

    sl2 = mats[g_at[1]]
    sl2_codes = _beta_codes(sl2, _sign_transversal(sl2, q), q)
    sl2_codes.sort()
    sl2_codes = _drop_repeats(sl2_codes)
    sl2_found = _in_sorted(sl2_codes, so_codes)
    sl2_in_so = bool(sl2_found.all())

    counterexample = None
    if len(bad_pairs):
        counterexample = {"check": "kernel_is_scalar_pairs", "pair": bad_pairs[0].tolist()}
    elif not image_equals_gso:
        if witness:
            counterexample = _code_witness("image_equals_gso", witness[1], witness[0], q)
    elif not sl2_in_so:
        code = int(sl2_codes[~sl2_found][0])
        counterexample = _code_witness("sl2_image_in_so", "sl2_image", code, q)

    return GsoPresentationReport(
        q=q,
        kernel_size=(q - 1) * len(kernel_pairs),
        kernel_expected=q - 1,
        kernel_is_scalar_pairs=not len(bad_pairs),
        image_size=sum(image_size),
        image_expected=image_expected,
        gso_size=sum(gso_size),
        image_equals_gso=image_equals_gso,
        go_size=go_size,
        so_size=int(len(so_codes)),
        sl2_image_size=int(len(sl2_codes)),
        sl2_image_in_so=sl2_in_so,
        counterexample=counterexample,
    )
