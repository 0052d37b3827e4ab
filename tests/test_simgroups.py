import itertools
import random

import numpy as np
import pytest

from gsp4transfer import simgroups
from gsp4transfer.simgroups import (
    SUPPORTED_Q,
    UnsupportedField,
    _cross4,
    _encode,
    _mod,
    _modinv,
    _unit_vectors,
    enumerate_go4_codes,
    gl2_elements,
    verify_gso_presentation,
)

I2 = ((1, 0), (0, 1))
I4 = np.eye(4, dtype=np.int64)
EXHAUSTIVE_Q = (3, 5, 7)  # the q whose whole GO(4) a test may hold at once


def reflect_last_column(codes, q):
    """The codes of M diag(1, 1, 1, -1) for coded matrices M: column 3 negated mod q."""
    places = q ** (4 * np.arange(4, dtype=np.int64) + 3)  # the digit of entry (r, 3)
    entries = codes[:, None] // places % q
    return codes + ((q - entries) % q - entries) @ places


def go4(q):
    """GO(4, F_q) as (codes, lams, dets), one whole class per lambda in turn, concatenated.

    enumerate_go4_codes lists the det = lambda^2 half of a class; each of its
    elements is followed by its image under M -> M diag(1, 1, 1, -1), which
    has det -lambda^2.
    """
    pool = _unit_vectors(q)
    o4 = simgroups._o4_columns(pool, q)
    codes, lams, dets = [], [], []
    for lam in range(1, q):
        (half,) = enumerate_go4_codes(q, lam, pool, o4)
        codes.append(np.stack([half, reflect_last_column(half, q)], axis=1).ravel())
        lams.append(np.full(2 * len(half), lam, dtype=np.int8))
        dets.append(np.tile(np.array([lam * lam % q, -lam * lam % q], dtype=np.int8), len(half)))
    return np.concatenate(codes), np.concatenate(lams), np.concatenate(dets)


def det2(g, q):
    return (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % q


def det4(m) -> int:
    """Reference determinant: cofactor expansion on exact integer entries."""
    a = [list(row) for row in m]

    def d3(c):
        x, y, z = ([row[j] for j in range(4) if j != c] for row in a[1:])
        return (
            x[0] * (y[1] * z[2] - y[2] * z[1])
            - x[1] * (y[0] * z[2] - y[2] * z[0])
            + x[2] * (y[0] * z[1] - y[1] * z[0])
        )

    return sum((-1) ** c * a[0][c] * d3(c) for c in range(4))


def beta(g1, g2, q) -> np.ndarray:
    """Reference pair map: C^-1 (g1 (x) g2) C mod q, one pair at a time."""
    C, Cinv = simgroups._det_frame(q)
    return (Cinv @ (np.kron(np.array(g1) % q, np.array(g2) % q) % q) @ C) % q


def beta_codes_by_rows(left, right, q) -> np.ndarray:
    """Reference pair map: the codes of _beta_codes, one row of beta at a time.

    beta(g, h) = L(g) R(h) mod q, so row r of beta over all pairs is one
    (len(left), 4) @ (4, 4 len(right)) product of row r of L(left[i]) with the
    columns of R(right[j]), reduced mod q and weighted by its digits q^(4r + s).
    The codes come in the order of _beta_codes: the code of (left[i],
    right[j]) at j * len(left) + i.
    """
    C, Cinv = simgroups._det_frame(q)
    eye = np.eye(2, dtype=np.int64)[None]
    lhs = (Cinv @ np.kron(left, eye) @ C) % q
    rhs = ((Cinv @ np.kron(eye, right) @ C) % q).transpose(1, 0, 2).reshape(4, -1)
    codes = np.zeros(len(left) * len(right), dtype=np.int64)
    for r in range(4):
        codes += (lhs[:, r] @ rhs % q).reshape(-1, 4) @ q ** (4 * r + np.arange(4))
    return codes.reshape(len(left), len(right)).T.reshape(-1)


def similitude_factor(m, q) -> int | None:
    """lambda with m^t m = lambda * I and lambda != 0, or None when there is none."""
    gram = (m.T @ m) % q
    lam = int(gram[0, 0])
    return lam if lam and np.array_equal(gram, lam * I4) else None


def gl2_tuples(q):
    """gl2_elements(q) as a list of nested tuples, in the same order."""
    return [tuple(map(tuple, g)) for g in gl2_elements(q).tolist()]


def random_gl2(rng, q):
    while True:
        g = tuple(tuple(rng.randrange(q) for _ in range(2)) for _ in range(2))
        if det2(g, q) != 0:
            return g


class TestBetaMap:
    def test_identity_pair(self):
        e = beta(I2, I2, 5)
        assert np.array_equal(e, I4)
        assert similitude_factor(e, 5) == 1

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_scalar_pairs_hit_identity(self, q):
        for c in range(1, q):
            cinv = pow(c, q - 2, q)
            e = beta(((c, 0), (0, c)), ((cinv, 0), (0, cinv)), q)
            assert np.array_equal(e, I4)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_determinant_is_lambda_squared(self, q):
        rng = random.Random(q)
        for _ in range(25):
            g1, g2 = random_gl2(rng, q), random_gl2(rng, q)
            e = beta(g1, g2, q)
            d = (det2(g1, q) * det2(g2, q)) % q
            assert similitude_factor(e, q) == d
            assert det4(e) % q == (d * d) % q

    @pytest.mark.parametrize("q", [5, 7])
    def test_homomorphism(self, q):
        rng = random.Random(100 + q)
        for _ in range(25):
            g1, h1 = random_gl2(rng, q), random_gl2(rng, q)
            g2, h2 = random_gl2(rng, q), random_gl2(rng, q)
            prod = (np.array(g1) @ np.array(h1)) % q
            prod2 = (np.array(g2) @ np.array(h2)) % q
            assert np.array_equal(beta(prod, prod2, q), (beta(g1, g2, q) @ beta(h1, h2, q)) % q)

    def test_singular_rejected(self):
        for q in (3, 5, 7):
            mats = gl2_elements(q)
            assert mats.dtype == np.int64 and mats.shape[1:] == (2, 2)
            gl2 = gl2_tuples(q)
            assert gl2 == sorted(gl2)  # lexicographic entry order
            assert len(gl2) == len(set(gl2)) == (q * q - 1) * (q * q - q)
            assert all(det2(g, q) for g in gl2)

    @pytest.mark.parametrize("q", [3, 5])
    def test_every_output_is_gso(self, q):
        rng = random.Random(200 + q)
        for _ in range(50):
            e = beta(random_gl2(rng, q), random_gl2(rng, q), q)
            lam = similitude_factor(e, q)
            assert lam is not None and det4(e) % q == (lam * lam) % q


class TestSimilitudeFactor:
    def test_reflection_not_gso(self):
        q = 5
        refl = np.diag([1, 1, 1, q - 1])
        codes, lams, dets = go4(q)
        (i,) = np.nonzero(codes == _encode(refl.reshape(1, 16), q)[0])[0]
        assert (lams[i], dets[i]) == (1, q - 1) and det4(refl) % q == q - 1
        mats = gl2_elements(q)
        assert not np.isin(codes[i], simgroups._beta_codes(mats, mats, q))

    @pytest.mark.parametrize("q", [3, 5])
    def test_lambda_multiplicative(self, q):
        rng = random.Random(300 + q)
        for _ in range(25):
            a = beta(random_gl2(rng, q), random_gl2(rng, q), q)
            b = beta(random_gl2(rng, q), random_gl2(rng, q), q)
            assert similitude_factor((a @ b) % q, q) == similitude_factor(a, q) * similitude_factor(b, q) % q


class TestEnumeration:
    def test_unsupported_q(self):
        for bad in (2, 4, 9, 15, 17):
            with pytest.raises(UnsupportedField, match=r"q must be one of \(3, 5, 7, 11, 13\), got"):
                verify_gso_presentation(bad)

    def test_q3_census(self):
        codes, lams, dets = go4(3)
        assert len(codes) == len(set(codes.tolist()))  # duplicate-free
        assert _encode(I4.reshape(1, 16), 3)[0] in codes
        gso = dets == lams * lams % 3
        assert gso.sum() == 48 * 48 // 2  # |GL2(3)|^2 / (q - 1)
        assert len(codes) == 2 * gso.sum()

    def test_q3_deterministic_order(self):
        first = go4(3)
        second = go4(3)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_all_elements_valid(self):
        q = 3
        for code, lam, det in zip(*(a[::97].tolist() for a in go4(q))):
            m = np.array(simgroups._decode(code, q))
            assert similitude_factor(m, q) == lam
            assert det4(m) % q == det
            assert (det * det) % q == pow(lam, 4, q)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_kernel_exactness_randomized(self, q):
        rng = random.Random(400 + q)
        for _ in range(60):
            g1, g2 = random_gl2(rng, q), random_gl2(rng, q)
            e = beta(g1, g2, q)
            scalar_pair = (
                g1[0][1] == g1[1][0] == g2[0][1] == g2[1][0] == 0
                and g1[0][0] == g1[1][1]
                and g2[0][0] == g2[1][1]
                and (g1[0][0] * g2[0][0]) % q == 1
            )
            assert np.array_equal(e, I4) == scalar_pair

    def test_kernel_exactness_exhaustive_q3(self):
        q = 3
        kernel = []
        for g1 in gl2_tuples(q):
            for g2 in gl2_tuples(q):
                if np.array_equal(beta(g1, g2, q), I4):
                    kernel.append((g1, g2))
        assert kernel == [
            (((1, 0), (0, 1)), ((1, 0), (0, 1))),
            (((2, 0), (0, 2)), ((2, 0), (0, 2))),
        ]


def vectors_by_norm(q):
    """All vectors of F_q^4 grouped by norm v.v, in lexicographic order."""
    grid = np.indices((q, q, q, q)).reshape(4, -1).T
    norms = (grid * grid).sum(axis=1) % q
    return {lam: grid[norms == lam] for lam in range(q)}


def enumerate_go4_codes_backtracking(q):
    """Reference oracle: GO(4, F_q) as (codes, lams, dets) by column backtracking.

    Columns are chosen lexicographically subject to the Gram constraints,
    every fourth column is scanned from the pool, and the determinant is
    taken by exact integer cofactor expansion.
    """
    by_norm = vectors_by_norm(q)
    codes, lams, dets = [], [], []
    for lam in range(1, q):
        pool = by_norm[lam]
        for c1 in pool:
            orth1 = pool[(pool @ c1) % q == 0]
            for c2 in orth1:
                orth2 = orth1[(orth1 @ c2) % q == 0]
                for c3 in orth2:
                    for c4 in orth2[(orth2 @ c3) % q == 0]:
                        m = np.stack([c1, c2, c3, c4], axis=1)
                        codes.append(int(_encode(m.reshape(1, 16), q)[0]))
                        lams.append(lam)
                        dets.append(det4(m) % q)
    return np.array(codes), np.array(lams), np.array(dets)


def enumerate_go4_codes_per_class(q):
    """Reference oracle: GO(4, F_q) as (codes, lams, dets), the closed form run once per lambda.

    For each lambda the first three columns run over every triple of
    mutually orthogonal norm-lambda vectors; the cross product v of a triple
    gives the two norm-lambda fourth columns +-v / lambda, and the
    determinant c4 . v.  Ordered by (lambda, c1, c2, c3, c4).
    """
    by_norm = vectors_by_norm(q)
    col_code = q ** (4 * np.arange(4, dtype=np.int64))
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
    return np.concatenate(codes), np.concatenate(lams), np.concatenate(dets)


def sorted_triples(arrays):
    return sorted(zip(*(a.tolist() for a in arrays)))


def sorted_triple_rows(arrays):
    """sorted_triples as an (n, 3) int64 array: Python tuples of 1.35 M elements at q = 7 take seconds."""
    order = np.lexsort(arrays[::-1])
    return np.stack([a[order].astype(np.int64) for a in arrays], axis=1)


def o4_order(q):
    """|O(4, F_q)| for the split form x.x: 2 q^2 (q^2 - 1)^2."""
    return 2 * q**2 * (q**2 - 1) ** 2


class TestClosedFormKernels:
    @pytest.mark.parametrize("q", [3, 5])
    def test_enumeration_matches_backtracking_oracle(self, q):
        assert sorted_triples(go4(q)) == sorted_triples(enumerate_go4_codes_backtracking(q))

    @pytest.mark.parametrize("q", EXHAUSTIVE_Q)
    def test_cosets_match_per_class_oracle(self, q):
        assert np.array_equal(sorted_triple_rows(go4(q)), sorted_triple_rows(enumerate_go4_codes_per_class(q)))

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_two_squares_for_every_residue(self, q):
        for t in range(q):
            a, b = simgroups._two_squares(t, q)
            assert 0 <= a < q and 0 <= b < q and (a * a + b * b - t) % q == 0

    @pytest.mark.parametrize("q", EXHAUSTIVE_Q)
    def test_each_class_is_one_o4_block(self, q):
        codes, lams, dets = go4(q)
        size = o4_order(q)
        assert len(codes) == (q - 1) * size
        for lam in range(1, q):
            block = slice((lam - 1) * size, lam * size)
            assert (lams[block] == lam).all()
            assert np.diff(np.sort(codes[block])).all()  # duplicate-free

    def test_bad_coset_representative_raises(self, monkeypatch):
        monkeypatch.setattr(simgroups, "_two_squares", lambda t, q: (1, 1))  # 1 + 1 = 2 only
        with pytest.raises(ArithmeticError, match="lambda = 3"):
            go4(5)

    def test_bad_determinant_frame_raises(self, monkeypatch):
        monkeypatch.setattr(simgroups, "_two_squares", lambda t, q: (1, 1))  # 1 + 1 = 2, not -1 mod 5
        simgroups._det_frame.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="not orthonormal mod 5"):
                simgroups._det_frame(5)
        finally:
            simgroups._det_frame.cache_clear()

    def test_pair_map_codes_match_beta_map(self):
        q = 7
        gl2 = gl2_elements(q)
        rng = random.Random(700)
        rows = [rng.randrange(len(gl2)) for _ in range(200)]
        cols = [rng.randrange(len(gl2)) for _ in range(200)]
        left, right = gl2[rows], gl2[cols]
        codes = simgroups._beta_codes(left, right, q)
        assert codes.shape == (200 * 200,)
        for _ in range(200):
            i, j = rng.randrange(200), rng.randrange(200)
            e = beta(left[i], right[j], q)
            assert np.array_equal(simgroups._decode(int(codes[j * 200 + i]), q), e)
            assert det2(left[i], q) * det2(right[j], q) % q == similitude_factor(e, q)

    @pytest.mark.parametrize("q", EXHAUSTIVE_Q)
    def test_column_table_matches_row_oracle(self, q):
        mats = gl2_elements(q)
        sl2 = mats[[det2(g, q) == 1 for g in mats.tolist()]]
        for left, right in ((simgroups._scalar_transversal(mats), mats), (sl2, sl2)):
            codes = simgroups._beta_codes(left, right, q)
            assert codes.dtype == np.int64
            assert np.array_equal(codes, beta_codes_by_rows(left, right, q))

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_column_table_on_repeated_rows_and_columns(self, q):
        mats = gl2_elements(q)
        rng = np.random.default_rng(q)
        # 200 draws from 40 elements each: every block repeats rows and columns
        left = mats[rng.choice(rng.choice(len(mats), 40, replace=False), 200)]
        right = mats[rng.choice(rng.choice(len(mats), 40, replace=False), 200)]
        assert np.array_equal(simgroups._beta_codes(left, right, q), beta_codes_by_rows(left, right, q))

    def test_column_table_with_an_empty_factor(self):
        mats = gl2_elements(3)
        for left, right in ((mats[:0], mats), (mats, mats[:0])):
            codes = simgroups._beta_codes(left, right, 3)
            assert codes.shape == (0,) and codes.dtype == np.int64

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_float32_products_are_exact(self, q):
        """Every float32 product multiplies residues in [0, q), so its partial sums only grow, up
        to inner dimension times (q - 1)^2: below 2^24, where float32 holds every integer, and
        below 2^15, where the int16 that reduces the product does."""
        mats = gl2_elements(q)
        pool = _unit_vectors(q)
        frames = [_modinv(lam, q) * simgroups._coset_representative(q, lam).T % q for lam in range(1, q)]
        products = {  # name: (operands, inner dimension)
            "_factors": ([mats, *simgroups._factor_bases(q)], 4),
            "_pair_codes fold": ([*frames, simgroups._left_factors(mats, q)], 4),
            "_pair_codes table": ([simgroups._right_columns(mats, q)[0], simgroups._left_factors(mats, q)], 4),
            "_o4_frames": ([pool], 4),
            "_o4_columns": ([simgroups._o4_frames(pool, q), simgroups._so3_columns(q)[0]], 3),
        }
        for name, (operands, inner) in products.items():
            for x in operands:
                assert np.array_equal(x, np.round(x)) and 0 <= x.min() and x.max() < q, name
            assert inner * (q - 1) ** 2 < 2**15 < 2**24, name

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_factors_match_the_three_matrix_product(self, q):
        """L(g) and R(g) by their basis images against C^-1 (g (x) I) C and C^-1 (I (x) g) C on
        int64, over all of GL2; col names each column of R(g) among the distinct ones."""
        mats = gl2_elements(q)
        C, Cinv = simgroups._det_frame(q)
        eye = np.eye(2, dtype=np.int64)[None]
        assert np.array_equal(simgroups._left_factors(mats, q), Cinv @ np.kron(mats, eye) @ C % q)
        cols, col = simgroups._right_columns(mats, q)
        assert np.unique(cols, axis=1).shape == cols.shape  # distinct columns
        assert np.array_equal(cols[:, col].transpose(1, 0, 2), Cinv @ np.kron(eye, mats) @ C % q)

    @pytest.mark.parametrize("q", [11, 13])
    def test_pulled_back_blocks_past_q_7(self, q):
        """_pair_codes with the pull-back frame of class d e, on two sampled (d, e) blocks of
        T x GL2, against the row oracle pulled back by its own decode and encode."""
        mats = gl2_elements(q)
        transversal = simgroups._scalar_transversal(mats)
        t_dets, g_dets = ((m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % q for m in (transversal, mats))
        rng = np.random.default_rng(q)
        for d, e in rng.choice([(d, e) for d in range(1, q) for e in range(1, q) if d * e % q != 1], 2).tolist():
            lam = d * e % q
            frame = _modinv(lam, q) * simgroups._coset_representative(q, lam).T % q
            left, right = transversal[t_dets == d], mats[g_dets == e]
            lhs, (cols, col) = simgroups._left_factors(left, q), simgroups._right_columns(right, q)
            codes = simgroups._pair_codes(frame, lhs, cols, col, q)
            assert np.array_equal(codes, pull_back(frame, beta_codes_by_rows(left, right, q), q))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_mod_matches_remainder(self, dtype):
        info = np.iinfo(dtype)
        x = np.concatenate([np.arange(-300, 300), [info.min, info.min + 1, info.max - 1, info.max]])
        x = np.unique(np.clip(x, info.min, info.max)).astype(dtype)
        for q in SUPPORTED_Q:
            assert np.array_equal(_mod(x, q), x % q)

    @pytest.mark.parametrize("q", [3, 5])
    def test_o4_block_order(self, q):
        """O(4) comes first, c-major: R_c (1 (+) N) for c in pool order, then N in the order of
        _so3_columns, each SO(4) element before its reflection (column 3 negated)."""
        codes, lams, dets = go4(q)
        size = o4_order(q)
        assert (lams[:size] == 1).all()
        mats = np.array([simgroups._decode(c, q) for c in codes[:size].tolist()])  # (size, 4, 4)
        plus, minus = mats[::2], mats[1::2]
        assert np.array_equal(plus[:, :, :3], minus[:, :, :3])
        assert np.array_equal((plus[:, :, 3] + minus[:, :, 3]) % q, np.zeros_like(plus[:, :, 3]))
        assert (dets[:size:2] == 1).all() and (dets[1:size:2] == q - 1).all()
        pool = _unit_vectors(q)
        units, cols = simgroups._so3_columns(q)
        blocks = np.zeros((cols.shape[1], 4, 4), dtype=np.int64)  # 1 (+) N for each N of SO(3), in order
        blocks[:, 0, 0] = 1
        blocks[:, 1:, 1:] = units[:, cols].transpose(2, 0, 1)
        for frame, coset in zip(simgroups._o4_frames(pool, q), plus.reshape(len(pool), -1, 4, 4)):
            assert np.array_equal(frame.T @ coset % q, blocks)  # R_c^-1 = R_c^t

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_frames_are_in_so4(self, q):
        pool = _unit_vectors(q)
        frames = simgroups._o4_frames(pool, q).astype(np.int64)
        assert frames.shape == (len(pool), 4, 4) and np.array_equal(frames[:, :, 0], pool)
        assert (frames.transpose(0, 2, 1) @ frames % q == I4).all()
        assert all(det4(frame) % q == 1 for frame in frames.tolist())

    @pytest.mark.parametrize("q", EXHAUSTIVE_Q)
    def test_so3_matches_brute_force(self, q):
        """Every orthonormal triple of unit vectors with det 1, in lexicographic order of its columns."""
        vectors = [v for v in itertools.product(range(q), repeat=3) if sum(x * x for x in v) % q == 1]
        dot = lambda u, v: sum(x * y for x, y in zip(u, v)) % q
        expected = [
            [list(u1), list(u2), list(u3)]
            for u1, u2, u3 in itertools.product(vectors, repeat=3)
            if dot(u1, u2) == dot(u1, u3) == dot(u2, u3) == 0
            and det4([[1, 0, 0, 0]] + [[0, u1[r], u2[r], u3[r]] for r in range(3)]) % q == 1
        ]
        units, cols = simgroups._so3_columns(q)
        assert units[:, cols].transpose(2, 1, 0).tolist() == expected  # (element, column, row)

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_so3_size(self, q):
        assert simgroups._so3_columns(q)[1].shape == (3, q * (q * q - 1))

    @pytest.mark.parametrize("fault", ["negated", "plus_u1"])
    def test_wrong_3d_cross_product_raises(self, monkeypatch, fault):
        """A third column of the wrong sign is refused by its determinant (-1), and one off the
        unit sphere by u3 . u3 (u1 x u2 + u1 has norm 2, though det [u1 u2 u1 x u2 + u1] is 1)."""
        cross3 = simgroups._cross3
        wrong = {"negated": lambda a, b: -cross3(a, b), "plus_u1": lambda a, b: cross3(a, b) + a}
        monkeypatch.setattr(simgroups, "_cross3", wrong[fault])
        with pytest.raises(ArithmeticError, match=r"does not complete SO\(3\)"):
            verify_gso_presentation(5)

    def test_frame_with_a_non_orthogonal_c3_raises(self):
        """c1 = e1, c2 = e2 and each unit c3 orthogonal to e1: refused unless c3 . c2 = 0 too."""
        q = 5
        pool = _unit_vectors(q).astype(np.int32)
        e1, e2 = I4[:, :1].astype(np.int32), I4[:, 1:2].astype(np.int32)
        for c3 in pool[pool[:, 0] == 0]:
            if c3[1] == 0:
                simgroups._fourth_column(e1, e2, c3[:, None], q)
            else:
                with pytest.raises(ArithmeticError, match=r"not the unit vector completing SO\(4\)"):
                    simgroups._fourth_column(e1, e2, c3[:, None], q)

    @pytest.mark.parametrize("q", [3, 5])
    def test_transversal_gives_image_and_kernel(self, q):
        mats = gl2_elements(q)
        n = len(mats)
        transversal = simgroups._scalar_transversal(mats)
        assert len(transversal) == n // (q - 1)
        # each scalar class {c g} meets the transversal exactly once
        classes = [{tuple((c * g % q).ravel()) for c in range(1, q)} for g in transversal]
        assert sum(map(len, classes)) == n and set().union(*classes) == {tuple(g.ravel()) for g in mats}
        full = simgroups._beta_codes(mats, mats, q)
        assert np.array_equal(np.unique(full), np.unique(simgroups._beta_codes(transversal, mats, q)))
        id_code = _encode(I4.reshape(1, 16), q)[0]
        hits = [(tuple(mats[k % n].ravel()), tuple(mats[k // n].ravel())) for k in np.flatnonzero(full == id_code)]
        scalar = lambda c: (c, 0, 0, c)
        assert sorted(hits) == [(scalar(c), scalar(pow(c, -1, q))) for c in range(1, q)]

    @pytest.mark.parametrize("q", [11, 13])
    def test_class_codes_and_dets_past_q_7(self, q):
        """Two elements of SO(4), the identity and diag(1, 1, -1, -1), carried to every class."""
        pool = _unit_vectors(q)
        index = {tuple(v): i for i, v in enumerate(pool.tolist())}
        e1, e2, e3, e4 = (tuple(row) for row in I4.tolist())
        n = len(pool)
        first = np.array([index[e1] * n + index[e2]] * 2, dtype=np.int32)
        last = np.array([index[e3] * n + index[e4], index[(0, 0, q - 1, 0)] * n + index[(0, 0, 0, q - 1)]],
                        dtype=np.int32)
        for lam in range(1, q):
            (codes,) = enumerate_go4_codes(q, lam, pool, (first, last))
            assert len(codes) == 2
            for code in codes.tolist():
                m = np.array(simgroups._decode(code, q))
                assert similitude_factor(m, q) == lam and det4(m) % q == lam * lam % q

    @pytest.mark.parametrize("q", [3, 5])
    def test_listed_half_has_det_lambda_squared(self, q):
        pool = _unit_vectors(q)
        o4 = simgroups._o4_columns(pool, q)
        for lam in range(1, q):
            (codes,) = enumerate_go4_codes(q, lam, pool, o4)
            assert len(codes) == o4_order(q) // 2
            for code in codes[:: 1 if q == 3 else 53].tolist():
                m = np.array(simgroups._decode(code, q))
                assert similitude_factor(m, q) == lam and det4(m) % q == lam * lam % q

    @pytest.mark.parametrize("fault", ["negated", "plus_c1"])
    def test_wrong_cross_product_raises(self, monkeypatch, fault):
        """A fourth column of the wrong sign is refused by its determinant (-1), and one off the
        unit sphere by c4 . v (v + c1 has norm 2, though det [c1 c2 c3 v + c1] is 1)."""
        cross4 = simgroups._cross4
        wrong = {"negated": lambda a, b, c: -cross4(a, b, c), "plus_c1": lambda a, b, c: cross4(a, b, c) + a}
        monkeypatch.setattr(simgroups, "_cross4", wrong[fault])
        with pytest.raises(ArithmeticError, match=r"not the unit vector completing SO\(4\)"):
            verify_gso_presentation(5)

    def test_det4_matches_cofactor_expansion(self):
        rng = np.random.default_rng(4)
        cols = rng.integers(-20, 20, size=(4, 4, 50))  # (column, row, sample)
        expected = [det4(cols[:, :, t].T.tolist()) for t in range(50)]
        assert simgroups._det4(*cols).tolist() == expected

    @pytest.mark.parametrize("q", EXHAUSTIVE_Q)
    def test_sign_transversal_gives_the_sl2_image(self, q):
        mats = gl2_elements(q)
        sl2 = mats[[det2(g, q) == 1 for g in mats.tolist()]]
        half = simgroups._sign_transversal(sl2, q)
        assert 2 * len(half) == len(sl2)
        # g and -g: exactly one of them is in the transversal
        assert {tuple(g.ravel()) for g in half} ^ {tuple(g.ravel()) for g in -half % q} == {
            tuple(g.ravel()) for g in sl2
        }
        full = np.unique(simgroups._beta_codes(sl2, sl2, q))
        assert np.array_equal(simgroups._sorted_unique(simgroups._beta_codes(sl2, half, q)), full)

    def test_enumeration_independent_of_pair_map(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the enumeration must not use the pair map")

        for name in ("_det_frame", "_left_factors", "_right_columns", "_pair_codes", "_beta_codes"):
            monkeypatch.setattr(simgroups, name, forbidden)
        codes, lams, dets = go4(5)
        assert len(codes) == 2 * (480 * 480 // 4)


def verify_gso_presentation_whole_set(q):
    """Reference oracle: the report of one comparison of the whole sets.

    The pair map runs on all of T x GL2 at once and GO(4) is enumerated
    whole; the image codes are compared with every det = lambda^2 code, and
    the counterexample of a failed comparison is the least code of the
    symmetric difference.
    """
    mats = gl2_elements(q)
    n = len(mats)
    transversal = simgroups._scalar_transversal(mats)
    codes = simgroups._beta_codes(transversal, mats, q)
    image_codes = simgroups._sorted_unique(codes)

    id_code = int(_encode(I4.reshape(1, 16), q)[0])
    g_idx, t_idx = np.divmod(np.flatnonzero(codes == id_code), len(transversal))  # codes come right-major
    order = np.lexsort((g_idx, t_idx))  # row-major (t, g) order
    t_idx, g_idx = t_idx[order], g_idx[order]
    kernel_pairs = np.stack([transversal[t_idx], mats[g_idx]], axis=1)
    bad_pairs = kernel_pairs[~(kernel_pairs == np.eye(2, dtype=np.int64)).all(axis=(1, 2, 3))]

    go_codes, go_lams, go_dets = go4(q)
    squares = (np.arange(q) ** 2 % q).astype(np.int8)
    gso_codes = np.sort(go_codes[go_dets == squares[go_lams]])
    image_equals_gso = bool(len(gso_codes) == len(image_codes) and np.array_equal(gso_codes, image_codes))

    so_codes = np.sort(go_codes[(go_dets == 1) & (go_lams == 1)])
    sl2 = mats[[det2(g, q) == 1 for g in mats.tolist()]]
    sl2_codes = simgroups._sorted_unique(simgroups._beta_codes(sl2, sl2, q))
    sl2_found = np.isin(sl2_codes, so_codes)

    counterexample = None
    if len(bad_pairs):
        counterexample = {"check": "kernel_is_scalar_pairs", "pair": bad_pairs[0].tolist()}
    elif not image_equals_gso:
        diff = np.setxor1d(image_codes, gso_codes)
        if len(diff):
            side = "image" if np.isin(diff[0], image_codes) else "gso"
            counterexample = simgroups._code_witness("image_equals_gso", side, int(diff[0]), q)
    elif not sl2_found.all():
        counterexample = simgroups._code_witness("sl2_image_in_so", "sl2_image", int(sl2_codes[~sl2_found][0]), q)

    return simgroups.GsoPresentationReport(
        q=q,
        kernel_size=(q - 1) * len(kernel_pairs),
        kernel_expected=q - 1,
        kernel_is_scalar_pairs=not len(bad_pairs),
        image_size=len(image_codes),
        image_expected=n * n // (q - 1),
        gso_size=len(gso_codes),
        image_equals_gso=image_equals_gso,
        go_size=len(go_codes),
        so_size=len(so_codes),
        sl2_image_size=len(sl2_codes),
        sl2_image_in_so=bool(sl2_found.all()),
        counterexample=counterexample,
    )


def pair_code(t, g, q) -> int:
    """The code of beta(t, g), from the reference pair map."""
    return int(_encode(beta(t, g, q).reshape(1, 16), q)[0])


def pull_back(frame, codes, q):
    """The codes of frame m mod q for the coded matrices m, by a decode and an encode of their own."""
    places = q ** np.arange(16, dtype=np.int64)  # entry (r, s) is digit 4 r + s
    mats = (codes[:, None] // places % q).reshape(-1, 4, 4)
    return (frame @ mats % q).reshape(-1, 16) @ places


def inject(monkeypatch, fault):
    """Pass every pair-map output, in original coordinates, through fault(codes, sl2) -> codes.

    _pair_codes is the one routine that both verify_gso_presentation and
    the whole-set oracle map pairs with, so both see the same fault: the
    wrapper maps the pairs with the identity frame, applies the fault and
    then pulls the codes back by the frame it was given, so a fault names
    pairs of beta whatever coordinates a class is compared in.  sl2 tells
    the SL2 calls apart: only there is the left factor at least as large as
    the right one.  verify_gso_presentation maps SL2 x T+-, T+- half of SL2,
    and the oracle SL2 x SL2; a det class of T has |GL2| / (q - 1)^2
    elements, one of GL2 |GL2| / (q - 1), and T itself |GL2| / (q - 1)
    against all of GL2.
    """
    pair_codes = simgroups._pair_codes

    def faulty(frame, lhs, cols, col, q):
        codes = fault(pair_codes(I4, lhs, cols, col, q), len(lhs) >= len(col))
        return codes if np.array_equal(frame, I4) else pull_back(frame, codes, q)

    monkeypatch.setattr(simgroups, "_pair_codes", faulty)


def replace_codes(targets, replacement):
    """A fault that gives each pair whose code is in targets the code replacement.

    The pair map is one-to-one on T x GL2 off the kernel, so a target code
    names one pair there, whichever block of pairs it is computed in.
    """

    def fault(codes, sl2):
        codes[np.isin(codes, targets)] = replacement
        return codes

    return fault


def named_fault(q, name):
    """One fault of the pair map by name; the pairs are taken in row-major T x GL2 order."""
    mats = gl2_elements(q)
    transversal = simgroups._scalar_transversal(mats)
    second = pair_code(transversal[0], mats[1], q)  # the second pair; det t det g = 1
    if name == "kernel":  # the second and the last pair hit the identity; the last has det t det g = -2
        return replace_codes([second, pair_code(transversal[-1], mats[-1], q)], pair_code(I2, I2, q))
    if name == "set":  # an arbitrary matrix, almost surely outside GO(4)
        return replace_codes([second], int(_encode(np.random.default_rng(q).integers(q, size=(1, 16)), q)[0]))
    if name == "other_class":  # an element of class 2, which another pair also hits
        g = next(g for g in mats if det2(g, q) == 2 * pow(int(det2(transversal[0], q)), -1, q) % q)
        return replace_codes([second], pair_code(transversal[0], g, q))
    if name == "not_similitude":  # the zero matrix
        return replace_codes([second], 0)
    if name == "both_sides":  # the second pair takes the largest det -1 code of O(4): a lesser code goes missing
        go_codes, lams, dets = go4(q)
        return replace_codes([second], int(go_codes[(lams == 1) & (dets == q - 1)].max()))
    if name == "class_2":  # the first pair of class 2 takes the code of the second: only class 2 is damaged
        g1, g2 = [g for g in mats if det2(g, q) == 2 * pow(int(det2(transversal[0], q)), -1, q) % q][:2]
        return replace_codes([pair_code(transversal[0], g1, q)], pair_code(transversal[0], g2, q))
    if name == "swapped_classes":  # off SL2 x SL2, the second pair and one of class 2 trade codes
        g = next(g for g in mats if det2(g, q) == 2 * pow(int(det2(transversal[0], q)), -1, q) % q)
        other = pair_code(transversal[0], g, q)

        def swap(codes, sl2):
            at_second, at_other = codes == second, codes == other
            if not sl2:
                codes[at_second], codes[at_other] = other, second
            return codes

        return swap
    if name == "sl2_identity":
        return lambda codes, sl2: np.full_like(codes, pair_code(I2, I2, q)) if sl2 else codes
    if name == "sl2_stray":  # a det = 1 element of class 2, outside SO(4)
        go_codes, lams, dets = go4(q)
        stray = int(go_codes[(lams == 2) & (dets == 4 % q)][0])
        return lambda codes, sl2: np.append(codes, stray) if sl2 else codes
    assert name == "none"
    return lambda codes, sl2: codes


class TestVerifyReport:
    def test_q3_report(self):
        report = verify_gso_presentation(3)
        assert report.ok
        assert report.kernel_size == 2
        assert report.image_size == 1152
        assert report.gso_size == 1152
        assert report.image_equals_gso
        assert report.go_size == 2304
        payload = report.to_json()
        assert payload["equal"] is True and payload["q"] == 3
        assert sorted(payload) == [
            "checks", "equal", "go_size", "gso_size", "image_expected", "image_size", "kernel_expected",
            "kernel_is_scalar_pairs", "kernel_size", "ok", "q", "sl2_image_in_so", "sl2_image_size", "so_size",
        ]
        assert payload["checks"] == dict(report.checks) and all(payload["checks"].values())

    @pytest.mark.parametrize(
        "q, fault",
        [(q, fault) for q in EXHAUSTIVE_Q
         for fault in ["none", "kernel", "set", "swapped_classes", "class_2", "sl2_identity", "sl2_stray"]]
        # the oracle's symmetric difference of whole sets takes about 2 s at q = 7
        + [(q, fault) for q in (3, 5) for fault in ["other_class", "not_similitude", "both_sides"]],
    )
    def test_class_by_class_report_matches_whole_set_oracle(self, monkeypatch, q, fault):
        inject(monkeypatch, named_fault(q, fault))
        report = verify_gso_presentation(q)
        assert report.to_json() == verify_gso_presentation_whole_set(q).to_json()
        assert report.ok == (fault in ("none", "swapped_classes"))  # the image is the same set after a swap

    def test_class_sizes_sum_to_the_group_orders(self):
        q = 7
        report = verify_gso_presentation(q)
        assert report.go_size == (q - 1) * o4_order(q)
        assert report.so_size == o4_order(q) // 2 and report.gso_size == (q - 1) * report.so_size

    def test_q11_sizes(self):
        report = verify_gso_presentation(11)
        assert report.ok and report.counterexample is None
        assert (report.kernel_size, report.image_size, report.gso_size) == (10, 17_424_000, 17_424_000)
        assert (report.go_size, report.so_size) == (34_848_000, 1_742_400)

    def test_sl2_image_must_have_index_2(self, monkeypatch):
        inject(monkeypatch, named_fault(3, "sl2_identity"))
        report = verify_gso_presentation(3)
        assert not report.ok and report.sl2_image_in_so and report.sl2_image_size == 1
        assert [name for name, passed in report.checks if not passed] == ["sl2_image_index_2"]
        assert report.counterexample is None

    @pytest.mark.parametrize("q", [3, 5])
    @pytest.mark.parametrize("stray", ["above_so", "below_so", "gso_lambda_not_1"])
    def test_sl2_failure_reports_stray_code(self, monkeypatch, q, stray):
        go_codes, lams, dets = go4(q)
        so_codes = go_codes[(lams == 1) & (dets == 1)]
        gso_other = go_codes[(lams != 1) & (dets == lams * lams % q)]
        stray_code = {
            "above_so": int(so_codes.max()) + 1,  # past the last element of the sorted search
            "below_so": int(so_codes.min()) - 1,
            "gso_lambda_not_1": int(gso_other[0]),
        }[stray]
        inject(monkeypatch, lambda codes, sl2: np.append(codes, stray_code) if sl2 else codes)
        report = verify_gso_presentation(q)
        assert not report.sl2_image_in_so and report.image_equals_gso
        assert report.counterexample == simgroups._code_witness("sl2_image_in_so", "sl2_image", stray_code, q)
        assert report.to_json() == verify_gso_presentation_whole_set(q).to_json()

    @pytest.mark.parametrize("q", EXHAUSTIVE_Q)
    def test_in_sorted_matches_isin(self, q):
        pool = np.sort(go4(q)[0][::7])
        values = np.concatenate([pool[::3], pool[:5] - 1, pool[-5:] + 1, [0, pool[0], pool[-1]]])
        assert np.array_equal(simgroups._in_sorted(values, pool), np.isin(values, pool))
        assert not simgroups._in_sorted(values, pool[:0]).any()

    def test_q3_sl2_pairs_land_in_so(self):
        q = 3
        rng = random.Random(7)
        sl2 = [g for g in gl2_tuples(q) if det2(g, q) == 1]
        for _ in range(40):
            g1, g2 = rng.choice(sl2), rng.choice(sl2)
            e = beta(g1, g2, q)
            assert similitude_factor(e, q) == 1 and det4(e) % q == 1

    def test_unsupported_q_raises(self):
        with pytest.raises(UnsupportedField):
            verify_gso_presentation(4)

    def test_kernel_failure_reports_first_non_scalar_pair(self, monkeypatch):
        # a second, later non-scalar hit, in another class at q = 5: the report must name the first one
        for q in (3, 5):
            with monkeypatch.context() as patch:
                inject(patch, named_fault(q, "kernel"))
                report = verify_gso_presentation(q)
            assert not report.ok and not report.kernel_is_scalar_pairs
            g1, g2 = gl2_tuples(q)[:2]  # the first transversal element is the first of GL2
            assert report.to_json()["counterexample"] == {
                "check": "kernel_is_scalar_pairs",
                "pair": [[list(r) for r in g1], [list(r) for r in g2]],
            }

    @pytest.mark.parametrize("q", [3, 5])
    def test_set_failure_reports_witness_det(self, monkeypatch, q):
        stray = np.random.default_rng(q).integers(q, size=16)  # the matrix of named_fault(q, "set")
        stray_code = int(_encode(stray.reshape(1, 16), q)[0])
        inject(monkeypatch, named_fault(q, "set"))
        report = verify_gso_presentation(q)
        assert not report.image_equals_gso
        m = stray.reshape(4, 4)
        assert report.counterexample == {
            "check": "image_equals_gso",
            "side": "image",
            "code": stray_code,
            "matrix": m.tolist(),
            "lam": int(m[:, 0] @ m[:, 0]) % q,
            "det": det4(m) % q,
        }

    def test_not_a_similitude_is_the_least_difference(self, monkeypatch):
        inject(monkeypatch, named_fault(5, "not_similitude"))
        report = verify_gso_presentation(5)
        assert report.image_size == report.image_expected and report.gso_size == report.image_expected
        assert report.counterexample == simgroups._code_witness("image_equals_gso", "image", 0, 5)

    def test_code_of_another_class_is_counted_once(self, monkeypatch):
        inject(monkeypatch, named_fault(5, "other_class"))
        report = verify_gso_presentation(5)
        assert report.image_size == report.image_expected - 1 and report.gso_size == report.image_expected
        mats = gl2_elements(5)
        second = pair_code(simgroups._scalar_transversal(mats)[0], mats[1], 5)
        assert report.counterexample == simgroups._code_witness("image_equals_gso", "gso", second, 5)

    @pytest.mark.parametrize("q", [3, 5])
    def test_least_code_missing_from_the_image_beats_a_greater_extra_one(self, monkeypatch, q):
        """Class 1 both gains a code (det -1, outside SO(4)) and loses a lesser one: the report
        names the lost code, on the gso side."""
        mats = gl2_elements(q)
        second = pair_code(simgroups._scalar_transversal(mats)[0], mats[1], q)
        inject(monkeypatch, named_fault(q, "both_sides"))
        report = verify_gso_presentation(q)
        assert report.image_size == report.image_expected and report.gso_size == report.image_expected
        assert report.counterexample == simgroups._code_witness("image_equals_gso", "gso", second, q)

    def test_failing_run_takes_no_hash_based_set_routine(self, monkeypatch):
        """In every block of q = 7 the first pair maps to the zero matrix and the second to an
        element of class 2, so every class fails and class 2 takes strays.  The run must not
        pass a class's codes, over 10^5 of them, to np.unique, np.isin, np.setxor1d or
        np.union1d: their hash-based unique made a failing q = 11 run about ten times slower."""
        go_codes, lams, dets = go4(7)
        stray = int(go_codes[(lams == 2) & (dets == 4)][0])

        def damage(codes, sl2):
            if not sl2:
                codes[:2] = 0, stray
            return codes

        inject(monkeypatch, damage)
        for name in ("unique", "isin", "setxor1d", "union1d"):
            def guarded(*arrays, routine=getattr(np, name), name=name, **kwargs):
                sizes = [np.size(a) for a in arrays]
                assert max(sizes) <= 10**5, f"np.{name} on {sizes} elements"
                return routine(*arrays, **kwargs)

            monkeypatch.setattr(np, name, guarded)
        report = verify_gso_presentation(7)
        assert not report.ok and not report.image_equals_gso and report.kernel_is_scalar_pairs
        assert report.counterexample == simgroups._code_witness("image_equals_gso", "image", 0, 7)

    def test_damage_in_one_class_past_1(self, monkeypatch):
        """A pair of class 2 that takes the code of another: class 2 fails, and no other."""
        q = 5
        inject(monkeypatch, named_fault(q, "class_2"))
        report = verify_gso_presentation(q)
        assert report.kernel_is_scalar_pairs and report.sl2_image_in_so and not report.image_equals_gso
        assert report.image_size == report.image_expected - 1 and report.gso_size == report.image_expected
        mats = gl2_elements(q)
        t = simgroups._scalar_transversal(mats)[0]
        g = next(g for g in mats if det2(g, q) * det2(t, q) % q == 2)
        assert report.counterexample == simgroups._code_witness("image_equals_gso", "gso", pair_code(t, g, q), q)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_witness_det_matches_cofactor_expansion(self, q):
        rng = np.random.default_rng(10 + q)
        go_codes = rng.choice(go4(q)[0], 100)
        codes = np.concatenate([go_codes, _encode(rng.integers(q, size=(100, 16)), q)])
        for code in codes.tolist():
            witness = simgroups._code_witness("check", "side", code, q)
            assert witness["det"] == det4(simgroups._decode(code, q)) % q

    @pytest.mark.parametrize("q", [3, 7, 13])
    def test_column_norms_match_witness_lambda(self, q):
        codes = _encode(np.random.default_rng(q).integers(q, size=(200, 16)), q)
        expected = [simgroups._code_witness("check", "side", code, q)["lam"] for code in codes.tolist()]
        assert simgroups._column_norms(codes, q).tolist() == expected
