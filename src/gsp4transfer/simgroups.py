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
flattened 4x4 matrix.  The module lists GO(4, F_q) as codes with their
lambda and det: O(4) by closed-form enumeration, and each lambda-class as
its coset g O(4), g a fixed similitude of factor lambda (see
enumerate_go4_codes).  It computes kernel and image of the pair map as
codes over T x GL(2), T a transversal of the scalars in GL(2) (a scalar
moves between the factors, so these pairs reach the whole image and every
kernel pair up to a scalar): beta(t, g) = L(t) R(g), and a table of L(t)
applied to the few distinct columns of the R(g) gives every code by four
gathers (see _beta_codes).  It packages the comparison into a report.  q
is restricted to odd primes (characteristic 2 breaks the symmetric-form
theory) and to q <= 7 for exhaustive work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

SUPPORTED_Q = (3, 5, 7)


class UnsupportedField(ValueError):
    """q outside the supported odd primes {3, 5, 7}."""


def _check_q(q: int) -> None:
    if q not in SUPPORTED_Q:
        raise UnsupportedField(f"q must be one of {SUPPORTED_Q}, got {q}")


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


def _scalar_transversal(mats: np.ndarray) -> np.ndarray:
    """The rows of mats whose first nonzero entry, row-major, is 1.

    Each scalar class {c g : c in F_q^*} of GL(2) holds exactly one such
    element, so on gl2_elements(q) this is a transversal of the scalars,
    with n / (q - 1) elements.
    """
    flat = mats.reshape(len(mats), 4)
    return mats[flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)] == 1]


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


def _beta_codes(left: np.ndarray, right: np.ndarray, q: int) -> np.ndarray:
    """Codes of beta over left x right, (k, 2, 2) and (m, 2, 2) arrays of GL2 elements.

    codes[i * len(right) + j] is the code of
    beta(g, h) = C^-1 (g (x) h) C mod q for g = left[i], h = right[j], C the
    frame of _det_frame.  The similitude factor of beta(g, h) is
    det(g) det(h) mod q and its determinant the square of that, so the image
    lies in the index-2 subgroup where det = lambda^2.

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
    the 4 |GL2| columns of the R(h) take only 48, 480 and 2016 distinct
    values u_c at q = 3, 5, 7.  So a column table comes first:
    table[i, c] = sum_r ((L(left[i]) u_c) mod q)_r q^(4r), the code of that
    column placed in column 0.  It takes four (k, u) products on int16
    (entries below 4 (q - 1)^2), reduced mod q on k u entries each.  Then
    code(i, j) = sum_s q^s table[i, col(j, s)], col(j, s) the index of
    column s of R(right[j]): four gathers over (k, m).

    A scalar moves between the factors: (c g1) (x) g2 = g1 (x) (c g2), so
    beta(c t, c^-1 g) = beta(t, g).  Every pair of GL2 x GL2 is
    (c t, c^-1 g) for exactly one c in F_q^*, t in the scalar transversal T
    of _scalar_transversal and g in GL2.  So beta(T x GL2) is the whole
    image, and the kernel has q - 1 pairs for each identity code there.
    """
    C, Cinv = _det_frame(q)
    eye = np.eye(2, dtype=np.int64)[None]
    lhs = ((Cinv @ np.kron(left, eye) @ C) % q).astype(np.int16)  # L(left[i]), (k, 4, 4)
    rhs = (Cinv @ np.kron(eye, right) @ C) % q    # R(right[j]), (m, 4, 4)
    digits = q ** np.arange(4)
    distinct, col = np.unique(rhs.transpose(0, 2, 1) @ digits, return_inverse=True)  # base-q codes of the columns
    cols = (distinct // digits[:, None] % q).astype(np.int16)  # (4, u): column c is u_c
    table = np.zeros((len(left), len(distinct)), dtype=np.int64)
    for r in range(4):
        entry = lhs[:, r, 0, None] * cols[0]      # (k, u): row r of L(left[i]) times u_c
        for t in range(1, 4):
            entry += lhs[:, r, t, None] * cols[t]
        table += _mod(entry, q) * np.int64(q ** (4 * r))
    col = col.reshape(len(right), 4)              # col[j, s]: index of column s of R(right[j])
    codes = np.take(table, col[:, 0], axis=1)     # (k, m); code = sum of beta[r, s] q^(4r + s) < 2^46
    gathered = np.empty_like(codes)
    for s in range(1, 4):
        np.take(table, col[:, s], axis=1, out=gathered)
        gathered *= q**s
        codes += gathered
    return codes.reshape(-1)


def _norm_vectors(q: int) -> dict[int, np.ndarray]:
    """All vectors of F_q^4 grouped by norm v.v, in lexicographic order."""
    grids = np.indices((q, q, q, q)).reshape(4, -1).T  # lex order
    norms = (grids * grids).sum(axis=1) % q
    return {lam: grids[norms == lam] for lam in range(q)}


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


def _o4_columns(pool: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """O(4, F_q) in closed form, as columns drawn from the pool of unit vectors.

    The first three columns run over every triple of mutually orthogonal unit
    vectors.  The triples come from the neighbour table of the orthogonality
    graph: O(4) is transitive on unit vectors, so each has the same number d
    of unit vectors orthogonal to it, listed in ascending order.  c2 and c3
    are neighbours of c1, and c3 one orthogonal to c2: a (len(pool), d, d)
    mask.  The cross product v of a triple spans its orthogonal complement,
    and the adjugate identity v = det * c4 with det = +-1 makes the two unit
    fourth columns exactly +-v; the determinant is c4 . v.  The cross product
    runs on int32 coordinates, whose entries stay below 3 (q - 1)^3.

    Returns (first, last, dets) for the T triples, each taken with c4 = v and
    then c4 = -v: first (T,) holds c1 n + c2 and last (T, 2) holds c3 n + c4,
    pool indices as flat indices of pool x pool (n = len(pool)), and dets
    (T, 2) the determinants.  Triples are in lexicographic order.
    """
    n = len(pool)
    lex_rank = q ** np.arange(3, -1, -1, dtype=np.int64)
    pool_index = np.zeros(q**4, dtype=np.int64)
    pool_index[pool @ lex_rank] = np.arange(n)
    orth = (pool @ pool.T) % q == 0
    nbr = np.nonzero(orth)[1].reshape(n, -1)            # (n, d): the unit vectors orthogonal to each, ascending
    d = nbr.shape[1]
    # flat index (c1 d + a) d + b of each c2 = nbr[c1, a], c3 = nbr[c1, b] with c2 . c3 = 0, lexicographic
    pair, b = np.divmod(np.flatnonzero(orth.ravel()[n * nbr[:, :, None] + nbr[:, None, :]]), d)
    i1, i2 = pair // d, nbr.ravel()[pair]
    i3 = nbr[i1, b]
    coords = pool.T.astype(np.int32)
    v = _cross4(*(np.take(coords, i, axis=1) for i in (i1, i2, i3)))
    fourth = np.stack([_mod(v, q), _mod(-v, q)])        # (2, 4, T): c4 = v and c4 = -v
    i4 = pool_index[((fourth[:, 0] * q + fourth[:, 1]) * q + fourth[:, 2]) * q + fourth[:, 3]].T  # (T, 2)
    dets = fourth[:, 0] * v[0]                          # (2, T): c4 . v
    for r in range(1, 4):
        dets += fourth[:, r] * v[r]
    return i1 * n + i2, i3[:, None] * n + i4, _mod(dets, q).T


def enumerate_go4_codes(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form enumeration of GO(4, F_q) as (codes, lams, dets).

    O(4) comes first, from _o4_columns.  Every other lambda-class is a coset
    of O(4).  Take a^2 + b^2 = lambda, R = [[a, -b], [b, a]] and
    g = R (+) R (g = I for lambda = 1).  Then g^t g = lambda I and
    det g = lambda^2, so M -> g M is a bijection from O(4) onto the matrices
    with m^t m = lambda I, and det(g M) = lambda^2 det M.  Column j of g M is
    g c_j, so the code of g M is the code of the columns (g c1, g c2) plus
    q^2 times that of (g c3, g c4), both gathered from one table over
    pool x pool per class.

    Elements come out ordered by lambda, then by the O(4) factor M: its
    triple (c1, c2, c3) in lexicographic order, then c4 = v before c4 = -v.
    So the output order is deterministic.  lams and dets are int8.  Nothing
    here uses the pair map.
    """
    _check_q(q)
    pool = _norm_vectors(q)[1]  # unit vectors, lexicographic
    first, last, o4_dets = _o4_columns(pool, q)  # its temporaries are freed before the output is allocated
    col_code = q ** (4 * np.arange(4, dtype=np.int64))  # code of a vector placed in column 0
    size = last.size
    codes = np.empty((q - 1) * size, dtype=np.int64)
    lams = np.repeat(np.arange(1, q, dtype=np.int8), size)
    dets = np.empty((q - 1) * size, dtype=np.int8)
    for lam in range(1, q):
        a, b = (1, 0) if lam == 1 else _two_squares(lam, q)
        g = np.kron(np.eye(2, dtype=np.int64), [[a, -b], [b, a]]) % q
        if not np.array_equal((g.T @ g) % q, lam * np.eye(4, dtype=np.int64)):
            raise ArithmeticError(f"coset representative for lambda = {lam} is not a similitude: {g.tolist()}")
        pool_code = ((pool @ g.T) % q) @ col_code      # code of g c in column 0, for each c in the pool
        pair_code = (pool_code[:, None] + q * pool_code).ravel()  # code of (g c, g c') in columns 0 and 1
        block = slice((lam - 1) * size, lam * size)
        np.add(pair_code[first][:, None], (q * q * pair_code)[last], out=codes[block].reshape(-1, 2))
        dets[block] = _mod(o4_dets * (lam * lam % q), q).ravel()
    return codes, lams, dets


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
    """np.unique by one sort and an adjacent compare.

    On the 677 376 int64 pair-map codes at q = 7, numpy 2.4's hash-based
    np.unique took 0.67-0.76 s and this 0.01 s (2-vCPU x86 machine).
    """
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


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


def verify_gso_presentation(q: int) -> GsoPresentationReport:
    """Exhaustively compare the pair-map image with the det = lambda^2 set.

    Asserted facts: the kernel is exactly the scalar pairs (c I, c^-1 I),
    q - 1 of them; the image has size |GL2|^2 / (q - 1); the image equals
    the independently enumerated {g in GO(4) : det g = lambda^2}; and pairs
    of determinant-1 matrices land in {det = 1, lambda = 1}, as a subgroup
    of index 2.  A failed assertion is a report entry, not an exception; the
    report then carries the first offending item: a non-scalar kernel pair,
    or the first code of a failed set comparison, tagged with the side it
    came from ("image", "gso" or "sl2_image").

    The pair map runs on T x GL2, T the scalar transversal (see _beta_codes):
    that is the whole image, and kernel_size is q - 1 times the identity
    codes there.  The only scalar pair in T x GL2 is (I, I), so any other
    pair with the identity code is itself a non-scalar kernel pair; the
    counterexample is the first of them in row-major (t, g) order.
    SL2 x SL2 is mapped on its own.
    """
    _check_q(q)
    mats = gl2_elements(q)
    n = len(mats)
    transversal = _scalar_transversal(mats)
    codes = _beta_codes(transversal, mats, q)
    image_codes = _sorted_unique(codes)
    image_expected = n * n // (q - 1)

    id_code = int(_encode(np.eye(4, dtype=np.int64).reshape(1, 16), q)[0])
    t_idx, g_idx = np.divmod(np.flatnonzero(codes == id_code), n)
    kernel_pairs = np.stack([transversal[t_idx], mats[g_idx]], axis=1)  # (hits, 2, 2, 2)
    bad_pairs = kernel_pairs[~(kernel_pairs == np.eye(2, dtype=np.int64)).all(axis=(1, 2, 3))]

    go_codes, go_lams, go_dets = enumerate_go4_codes(q)
    squares = (np.arange(q) ** 2 % q).astype(np.int8)
    gso_mask = go_dets == squares[go_lams]
    gso_codes = np.sort(go_codes[gso_mask])
    image_equals_gso = bool(
        len(gso_codes) == len(image_codes) and np.array_equal(gso_codes, image_codes)
    )

    so_mask = (go_dets == 1) & (go_lams == 1)
    so_codes = np.sort(go_codes[so_mask])
    dets = (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % q
    sl2 = mats[dets == 1]
    sl2_codes = _sorted_unique(_beta_codes(sl2, sl2, q))
    sl2_found = _in_sorted(sl2_codes, so_codes)
    sl2_in_so = bool(sl2_found.all())

    counterexample = None
    if len(bad_pairs):
        counterexample = {"check": "kernel_is_scalar_pairs", "pair": bad_pairs[0].tolist()}
    elif not image_equals_gso:
        diff = np.setxor1d(image_codes, gso_codes)
        if len(diff):
            code = int(diff[0])
            side = "image" if np.isin(code, image_codes) else "gso"
            counterexample = _code_witness("image_equals_gso", side, code, q)
    elif not sl2_in_so:
        code = int(sl2_codes[~sl2_found][0])
        counterexample = _code_witness("sl2_image_in_so", "sl2_image", code, q)

    return GsoPresentationReport(
        q=q,
        kernel_size=(q - 1) * len(kernel_pairs),
        kernel_expected=q - 1,
        kernel_is_scalar_pairs=not len(bad_pairs),
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
