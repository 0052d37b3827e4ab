import random

import numpy as np
import pytest

from gsp4transfer import simgroups
from gsp4transfer.simgroups import (
    SimilitudeElement,
    UnsupportedField,
    _det4_int,
    _encode,
    _norm_vectors,
    beta_map,
    compose,
    det2,
    enumerate_go4,
    enumerate_go4_codes,
    gl2_elements,
    identity_element,
    is_gso,
    sl2_elements,
    verify_gso_presentation,
)

I2 = ((1, 0), (0, 1))


def random_gl2(rng, q):
    while True:
        g = tuple(tuple(rng.randrange(q) for _ in range(2)) for _ in range(2))
        if det2(g, q) != 0:
            return g


class TestBetaMap:
    def test_identity_pair(self):
        e = beta_map(I2, I2, 5)
        assert e == identity_element(5)
        assert e.lam == 1

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_scalar_pairs_hit_identity(self, q):
        for c in range(1, q):
            cinv = pow(c, q - 2, q)
            e = beta_map(((c, 0), (0, c)), ((cinv, 0), (0, cinv)), q)
            assert e == identity_element(q)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_determinant_is_lambda_squared(self, q):
        rng = random.Random(q)
        for _ in range(25):
            g1, g2 = random_gl2(rng, q), random_gl2(rng, q)
            e = beta_map(g1, g2, q)
            d = (det2(g1, q) * det2(g2, q)) % q
            assert e.lam == d
            assert e.det() == (d * d) % q

    @pytest.mark.parametrize("q", [5, 7])
    def test_homomorphism(self, q):
        rng = random.Random(100 + q)
        for _ in range(25):
            g1, h1 = random_gl2(rng, q), random_gl2(rng, q)
            g2, h2 = random_gl2(rng, q), random_gl2(rng, q)
            prod = tuple(
                tuple(sum(g1[i][k] * h1[k][j] for k in range(2)) % q for j in range(2))
                for i in range(2)
            )
            prod2 = tuple(
                tuple(sum(g2[i][k] * h2[k][j] for k in range(2)) % q for j in range(2))
                for i in range(2)
            )
            assert beta_map(prod, prod2, q) == compose(beta_map(g1, g2, q), beta_map(h1, h2, q))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            beta_map(((1, 1), (1, 1)), I2, 5)

    @pytest.mark.parametrize("q", [3, 5])
    def test_every_output_is_gso(self, q):
        rng = random.Random(200 + q)
        for _ in range(50):
            e = beta_map(random_gl2(rng, q), random_gl2(rng, q), q)
            assert is_gso(e)


class TestSimilitudeElement:
    def test_gram_condition_enforced(self):
        bad = tuple(tuple([1, 1, 0, 0][j] if i == 0 else int(i == j) for j in range(4)) for i in range(4))
        with pytest.raises(ValueError):
            SimilitudeElement(bad, 1, 5)

    def test_zero_lambda_rejected(self):
        eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        with pytest.raises(ValueError):
            SimilitudeElement(eye, 0, 5)

    def test_reflection_not_gso(self):
        refl = tuple(
            tuple((1 if i == j else 0) * (-1 if i == 3 else 1) for j in range(4))
            for i in range(4)
        )
        e = SimilitudeElement(refl, 1, 5)
        assert not is_gso(e)

    @pytest.mark.parametrize("q", [3, 5])
    def test_lambda_multiplicative(self, q):
        rng = random.Random(300 + q)
        for _ in range(25):
            a = beta_map(random_gl2(rng, q), random_gl2(rng, q), q)
            b = beta_map(random_gl2(rng, q), random_gl2(rng, q), q)
            assert compose(a, b).lam == (a.lam * b.lam) % q


class TestEnumeration:
    def test_unsupported_q(self):
        for bad in (2, 4, 9, 11):
            with pytest.raises(UnsupportedField):
                enumerate_go4(bad)

    def test_q3_census(self):
        elements = enumerate_go4(3)
        assert len(elements) == len({(e.m, e.lam) for e in elements})  # duplicate-free
        assert identity_element(3) in elements
        gso = [e for e in elements if is_gso(e)]
        assert len(gso) == 48 * 48 // 2  # |GL2(3)|^2 / (q - 1)
        assert len(elements) == 2 * len(gso)

    def test_q3_deterministic_order(self):
        first = enumerate_go4(3)
        second = enumerate_go4(3)
        assert first == second

    def test_all_elements_valid(self):
        # construction re-checks the Gram invariant; spot-check determinants too
        for e in enumerate_go4(3)[::97]:
            d = e.det()
            assert (d * d) % 3 == pow(e.lam, 4, 3)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_kernel_exactness_randomized(self, q):
        rng = random.Random(400 + q)
        ident = identity_element(q)
        for _ in range(60):
            g1, g2 = random_gl2(rng, q), random_gl2(rng, q)
            e = beta_map(g1, g2, q)
            scalar_pair = (
                g1[0][1] == g1[1][0] == g2[0][1] == g2[1][0] == 0
                and g1[0][0] == g1[1][1]
                and g2[0][0] == g2[1][1]
                and (g1[0][0] * g2[0][0]) % q == 1
            )
            assert (e == ident) == scalar_pair

    def test_kernel_exactness_exhaustive_q3(self):
        q = 3
        ident = identity_element(q)
        kernel = []
        for g1 in gl2_elements(q):
            for g2 in gl2_elements(q):
                if beta_map(g1, g2, q) == ident:
                    kernel.append((g1, g2))
        assert kernel == [
            (((1, 0), (0, 1)), ((1, 0), (0, 1))),
            (((2, 0), (0, 2)), ((2, 0), (0, 2))),
        ]


def enumerate_go4_codes_backtracking(q):
    """Reference oracle: GO(4, F_q) as (codes, lams, dets) by column backtracking.

    Columns are chosen lexicographically subject to the Gram constraints,
    every fourth column is scanned from the pool, and the determinant is
    taken by exact integer cofactor expansion.
    """
    by_norm = _norm_vectors(q)
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
                        dets.append(_det4_int(m.tolist()) % q)
    return np.array(codes), np.array(lams), np.array(dets)


def sorted_triples(arrays):
    return sorted(zip(*(a.tolist() for a in arrays)))


class TestClosedFormKernels:
    @pytest.mark.parametrize("q", [3, 5])
    def test_enumeration_matches_backtracking_oracle(self, q):
        assert sorted_triples(enumerate_go4_codes(q)) == sorted_triples(enumerate_go4_codes_backtracking(q))

    def test_pair_map_codes_match_beta_map(self):
        q = 7
        gl2 = gl2_elements(q)
        n = len(gl2)
        codes, dets = simgroups._beta_codes_and_dets(q)
        rng = random.Random(700)
        for _ in range(200):
            i, j = rng.randrange(n), rng.randrange(n)
            e = beta_map(gl2[i], gl2[j], q)
            assert simgroups._decode(int(codes[i * n + j]), q) == e.m
            assert dets[i] * dets[j] % q == e.lam

    def test_chunk_budget_does_not_change_codes(self, monkeypatch):
        default = simgroups._beta_codes_and_dets(3)
        monkeypatch.setattr(simgroups, "_CHUNK_BYTES", 1)  # one first factor per chunk
        tiny = simgroups._beta_codes_and_dets(3)
        assert all(np.array_equal(a, b) for a, b in zip(default, tiny))

    def test_enumeration_independent_of_pair_map(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the enumeration must not use the pair map")

        monkeypatch.setattr(simgroups, "beta_map", forbidden)
        monkeypatch.setattr(simgroups, "_beta_codes_and_dets", forbidden)
        codes, lams, dets = enumerate_go4_codes(5)
        assert len(codes) == 2 * (480 * 480 // 4)


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

    def test_q3_sl2_pairs_land_in_so(self):
        q = 3
        rng = random.Random(7)
        sl2 = sl2_elements(q)
        for _ in range(40):
            g1, g2 = rng.choice(sl2), rng.choice(sl2)
            e = beta_map(g1, g2, q)
            assert e.lam == 1 and e.det() == 1

    def test_unsupported_q_raises(self):
        with pytest.raises(UnsupportedField):
            verify_gso_presentation(4)

    def test_kernel_failure_reports_first_non_scalar_pair(self, monkeypatch):
        pair_map = simgroups._beta_codes_and_dets

        def identity_at_second_pair(q):
            codes, dets = pair_map(q)
            codes = codes.copy()
            codes[1] = simgroups._encode(np.eye(4, dtype=np.int64).reshape(1, 16), q)[0]
            return codes, dets

        monkeypatch.setattr(simgroups, "_beta_codes_and_dets", identity_at_second_pair)
        report = verify_gso_presentation(3)
        assert not report.ok and not report.kernel_is_scalar_pairs
        g1, g2 = gl2_elements(3)[:2]
        assert report.to_json()["counterexample"] == {
            "check": "kernel_is_scalar_pairs",
            "pair": [[list(r) for r in g1], [list(r) for r in g2]],
        }
