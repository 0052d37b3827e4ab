import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp4transfer.satake import (
    CentralCharMismatch,
    ExactForm,
    ExponentVector,
    GL2Param,
    GL4Param,
    PRIME_POWER_LIMIT,
    GSp4Param,
    PlaceData,
    UnramChar,
    as_char,
    chars_equal,
    check_selfdual_twist,
    exponents,
    gsp4_to_gl4_embed,
    langlands_param_from_induction,
    match_multisets,
    param_from_json,
    param_to_json,
    rodier_class,
    theta_lift_params,
    transfer_gsp4_to_gl4,
    weyl_orbit,
)

nonzero_complex = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)

exact_chars = st.builds(
    lambda num, den, tn, td: UnramChar.from_exact(
        Fraction(num, den), Fraction(tn, td), 5
    ),
    st.integers(-6, 6),
    st.integers(1, 6),
    st.integers(-12, 12),
    st.integers(1, 12),
)


class TestUnramChar:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            UnramChar(0)

    def test_exact_consistency(self):
        c = UnramChar.from_exact(Fraction(1, 2), Fraction(1, 3), 7)
        assert c.consistent_at(7)
        assert abs(c.value) == pytest.approx(math.sqrt(7))

    def test_exact_arithmetic_tracks_value(self):
        a = UnramChar.from_exact(Fraction(1, 2), Fraction(1, 4), 5)
        b = UnramChar.from_exact(Fraction(-1, 2), Fraction(1, 4), 5)
        prod = a * b
        assert prod.exact == ExactForm(Fraction(0), Fraction(1, 2))
        assert prod.value == pytest.approx(a.value * b.value)
        assert (a / a).exact == ExactForm(Fraction(0), Fraction(0))

    @given(exact_chars)
    def test_inverse_roundtrip(self, c):
        back = c.inverse().inverse()
        assert back.exact == c.exact
        assert abs(back.value - c.value) < 1e-9 * max(1.0, abs(c.value))

    def test_turns_normalized(self):
        f = ExactForm(Fraction(0), Fraction(7, 3))
        assert f.turns == Fraction(1, 3)


class TestMultisetMatching:
    def test_exact_mode_is_exact(self):
        xs = [UnramChar.from_exact(0, Fraction(1, 3), 5)]
        ys = [UnramChar.from_exact(0, Fraction(1, 3), 5)]
        assert match_multisets(xs, ys)
        ys = [UnramChar.from_exact(0, Fraction(1, 3) + Fraction(1, 10**9), 5)]
        assert not match_multisets(xs, ys)

    def test_float_mode_tolerates_roundoff(self):
        xs = [1 + 2j, 3 - 1j]
        ys = [3 - 1j + 1e-12, 1 + 2j - 1e-12j]
        assert match_multisets(xs, ys)
        assert not match_multisets(xs, [1 + 2j, 3 - 1j + 1e-6])

    def test_multiplicity_respected(self):
        assert not match_multisets([1, 1, 2, 2], [1, 2, 2, 2])

    def test_symmetric_when_nearest_match_is_wrong(self):
        # pairing 1 with its nearest entry 1+0.9e-9 strands 1+1.8e-9; the
        # perfect matching pairs 1 with 1-0.95e-9 instead
        xs = [1, 1 + 1.8e-9]
        ys = [1 + 0.9e-9, 1 - 0.95e-9]
        assert match_multisets(xs, ys)
        assert match_multisets(ys, xs)


class TestTransferMap:
    def test_identity_character(self):
        out = transfer_gsp4_to_gl4(1, 1, 1)
        assert match_multisets(out.entries, [1, 1, 1, 1])

    def test_printed_substitution(self):
        # direct substitution of (c0, c1, c2) = (4, 2, 3)
        out = transfer_gsp4_to_gl4(4, 2, 3)
        assert match_multisets(out.entries, [2, 3, Fraction(4, 3), 2])
        assert out.product().value == pytest.approx(16)

    def test_hand_evaluated_quotients(self):
        # (1, i, -1): the four values are i, -1, 1/-1, 1/i
        out = transfer_gsp4_to_gl4(1, 1j, -1)
        assert match_multisets(out.entries, [1j, -1, -1, -1j])
        assert out.product().value == pytest.approx(1)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            transfer_gsp4_to_gl4(0, 1, 1)

    @given(nonzero_complex, nonzero_complex, nonzero_complex)
    @settings(max_examples=200, deadline=None)
    def test_product_is_center_squared(self, c0, c1, c2):
        out = transfer_gsp4_to_gl4(c0, c1, c2)
        prod = out.product().value
        assert abs(prod - c0 * c0) <= 1e-9 * max(1.0, abs(c0 * c0))

    @given(nonzero_complex, nonzero_complex, nonzero_complex)
    @settings(max_examples=200, deadline=None)
    def test_selfdual_after_center_twist(self, c0, c1, c2):
        out = transfer_gsp4_to_gl4(c0, c1, c2)
        assert check_selfdual_twist(out, c0)


class TestThetaLift:
    def test_unit_circle_pair(self):
        w = cmath.exp(1j * math.pi / 3)
        p1 = GL2Param.make(1j, -1j)
        p2 = GL2Param.make(w, w.conjugate())
        lifted = theta_lift_params(p1, p2)
        assert chars_equal(lifted.mu, 1)
        embedded = gsp4_to_gl4_embed(lifted)
        assert match_multisets(embedded.entries, [1j, -1j, w, w.conjugate()])

    def test_trivial_pair(self):
        p = GL2Param.make(1, 1)
        lifted = theta_lift_params(p, p)
        assert match_multisets(gsp4_to_gl4_embed(lifted).entries, [1, 1, 1, 1])
        assert chars_equal(lifted.mu, 1)

    def test_mismatched_central_values(self):
        with pytest.raises(CentralCharMismatch):
            theta_lift_params(GL2Param.make(2, 3), GL2Param.make(1, 5))

    def test_gl2_invariant(self):
        with pytest.raises(ValueError):
            GL2Param(as_char(2), as_char(3), as_char(5))


class TestEmbedding:
    def test_trivial(self):
        p = GSp4Param(((as_char(1), as_char(1)), (as_char(1), as_char(1))), as_char(1))
        assert match_multisets(gsp4_to_gl4_embed(p).entries, [1, 1, 1, 1])

    def test_two_routes_agree(self):
        # embed {(2,3),(6,1)} with mu 6 against the direct transfer (6, 2, 6)
        p = GSp4Param(((as_char(2), as_char(3)), (as_char(6), as_char(1))), as_char(6))
        via_embed = gsp4_to_gl4_embed(p)
        via_transfer = transfer_gsp4_to_gl4(6, 2, 6)
        assert match_multisets(via_embed.entries, [2, 3, 6, 1])
        assert match_multisets(via_embed.entries, via_transfer.entries)

    def test_similitude_enforced(self):
        with pytest.raises(ValueError):
            GSp4Param(((as_char(2), as_char(3)), (as_char(1), as_char(5))), as_char(6))

    def test_tuple_roundtrip(self):
        p = GSp4Param(
            ((UnramChar.from_exact(1, 0, 5), UnramChar.from_exact(2, 0, 5)),
             (UnramChar.from_exact(0, Fraction(1, 4), 5), UnramChar.from_exact(3, -Fraction(1, 4), 5))),
            UnramChar.from_exact(3, 0, 5),
        )
        again = GSp4Param.from_tuple(p.to_tuple())
        assert again.pairs == p.pairs
        assert again.mu.exact == p.mu.exact and chars_equal(again.mu, p.mu)
        t = again.to_tuple()
        assert chars_equal(t[0] * t[3], again.mu) and chars_equal(t[1] * t[2], again.mu)

    def test_torus_coordinates_reconstruct(self):
        p = GSp4Param(((as_char(2), as_char(3)), (as_char(6), as_char(1))), as_char(6))
        a0, a1, a2 = p.torus_coordinates()
        t = p.to_tuple()
        assert chars_equal(a0 * a1 * a2, t[0])
        assert chars_equal(a0 * a1, t[1])
        assert chars_equal(a0 * a2, t[2])
        assert chars_equal(a0, t[3])


@st.composite
def gl2_pairs_equal_mu(draw):
    alpha1 = draw(exact_chars)
    beta1 = draw(exact_chars)
    alpha2 = draw(exact_chars)
    mu = alpha1 * beta1
    return GL2Param.make(alpha1, beta1), GL2Param.make(alpha2, mu / alpha2)


class TestCommutingDiagram:
    @given(gl2_pairs_equal_mu())
    @settings(max_examples=200, deadline=None)
    def test_lift_then_embed_equals_direct_transfer(self, pair):
        p1, p2 = pair
        lifted = theta_lift_params(p1, p2)
        left = gsp4_to_gl4_embed(lifted)
        right = transfer_gsp4_to_gl4(p1.mu, p1.alpha, p2.alpha)
        assert match_multisets(left.entries, right.entries)


class TestInduction:
    def test_trivial(self):
        p = langlands_param_from_induction(1, 1, 1)
        assert match_multisets(gsp4_to_gl4_embed(p).entries, [1, 1, 1, 1])
        assert chars_equal(p.mu, 1)

    def test_hand_evaluation(self):
        # (c1, c2, c3) = (2, 3, 1): pairs {(1, 6), (2, 3)}, mu = 6
        p = langlands_param_from_induction(2, 3, 1)
        assert chars_equal(p.mu, 6)
        assert match_multisets(gsp4_to_gl4_embed(p).entries, [1, 6, 2, 3])

    @given(nonzero_complex, nonzero_complex, nonzero_complex)
    @settings(max_examples=100, deadline=None)
    def test_similitude_identity_forced(self, c1, c2, c3):
        p = langlands_param_from_induction(c1, c2, c3)
        (x1, y1), (x2, y2) = p.pairs
        assert abs(x1.value * y1.value - x2.value * y2.value) <= 1e-9 * max(
            1.0, abs(x1.value * y1.value)
        )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            langlands_param_from_induction(0, 1, 1)


def brute_force_orbit(quad):
    """Independent oracle: close the two generators inside S4, then apply."""
    sigma = (1, 0, 2, 3)
    tau = (2, 3, 0, 1)

    def compose(p, r):
        return tuple(p[r[i]] for i in range(4))

    group = {(0, 1, 2, 3)}
    frontier = [(0, 1, 2, 3)]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in (sigma, tau):
                h = compose(g, gen)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return {tuple(quad[g[i]] for i in range(4)) for g in group}, group


class TestWeylOrbit:
    def test_group_has_order_eight(self):
        _, group = brute_force_orbit((0, 1, 2, 3))
        assert len(group) == 8

    def test_fixed_point(self):
        orbit = weyl_orbit([2, 2, 2, 2])
        assert len(orbit) == 1

    def test_distinct_entries_give_eight(self):
        quad = (2, 3, 5, 7)
        orbit = weyl_orbit(quad)
        expected, _ = brute_force_orbit(quad)
        got = {tuple(c.value for c in t) for t in orbit}
        assert len(orbit) == 8
        assert got == {tuple(complex(x) for x in t) for t in expected}

    def test_abab_has_orbit_four(self):
        quad = (2, 3, 2, 3)
        orbit = weyl_orbit(quad)
        expected, _ = brute_force_orbit(quad)
        assert len(orbit) == len(expected) == 4

    @given(st.tuples(*([st.sampled_from([1, 2, 3, -1])] * 4)))
    def test_orbit_size_divides_eight(self, quad):
        orbit = weyl_orbit(quad)
        assert 8 % len(orbit) == 0

    @given(st.tuples(*([st.sampled_from([2, 3, 5])] * 4)))
    def test_idempotent(self, quad):
        orbit = weyl_orbit(quad)
        keys = {tuple(c.value for c in t) for t in orbit}
        for member in orbit:
            again = weyl_orbit(member)
            assert {tuple(c.value for c in t) for t in again} == keys

    def test_generators_are_involutions(self):
        quad = tuple(as_char(c) for c in (2, 3, 5, 7))
        sigma = lambda t: (t[1], t[0], t[2], t[3])
        tau = lambda t: (t[2], t[3], t[0], t[1])
        assert sigma(sigma(quad)) == quad
        assert tau(tau(quad)) == quad


def prime_power_by_trial_division(n):
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return True


class TestPlaceData:
    def test_prime_powers_agree_with_trial_division(self):
        for n in range(10**4):
            ok = prime_power_by_trial_division(n)
            if ok:
                assert PlaceData(n).q == n
            else:
                with pytest.raises(ValueError, match="prime power"):
                    PlaceData(n)

    @pytest.mark.parametrize("q, ok", [(2**61 - 1, True), (3**45, True), (10**18 + 3, True),
                                       ((2**31 - 1) * (2**61 - 1), False), (7**2 * 11, False),
                                       (PRIME_POWER_LIMIT - 1, False),
                                       # strong pseudoprimes to the bases 2..7 and 2..23
                                       (3215031751, False), (3825123056546413051, False)])
    def test_large_cardinalities(self, q, ok):
        if ok:
            assert PlaceData(q).q == q
        else:
            with pytest.raises(ValueError):
                PlaceData(q)

    def test_beyond_exact_range_rejected(self):
        with pytest.raises(ValueError, match="below"):
            PlaceData(PRIME_POWER_LIMIT)


class TestExponents:
    def test_units(self):
        p = GL4Param(tuple(as_char(1) for _ in range(4)))
        assert exponents(p, PlaceData(5)).e == (0.0, 0.0, 0.0, 0.0)

    def test_half_exponents(self):
        q = 5
        entries = (
            UnramChar.from_exact(Fraction(1, 2), 0, q),
            UnramChar.from_exact(Fraction(-1, 2), 0, q),
            UnramChar.from_exact(0, 0, q),
            UnramChar.from_exact(0, Fraction(1, 2), q),
        )
        vec = exponents(GL4Param(entries), PlaceData(q))
        assert vec.e == (Fraction(-1, 2), 0, 0, Fraction(1, 2))
        assert vec.is_exact

    def test_direct_logarithms(self):
        p = GL4Param(tuple(as_char(x) for x in (3, Fraction(1, 3), 27, Fraction(1, 27))))
        vec = exponents(p, PlaceData(3))
        assert vec.e == pytest.approx((-3.0, -1.0, 1.0, 3.0))


class TestRodier:
    def test_printed_family_b(self):
        vec = ExponentVector((Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)))
        assert rodier_class(vec).family == "B"

    def test_printed_family_c(self):
        vec = ExponentVector((Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)))
        assert rodier_class(vec).family == "C"

    def test_family_a_samples(self):
        for r in (Fraction(0), Fraction(1, 8), Fraction(1, 4)):
            vec = ExponentVector(tuple(sorted((Fraction(-1, 2), -r, r, Fraction(1, 2)))))
            verdict = rodier_class(vec)
            assert verdict.family == "A" and verdict.r == r

    def test_boundary_is_inclusive(self):
        vec = ExponentVector((-0.5, -0.25, 0.25, 0.5))
        assert rodier_class(vec).family == "A"

    def test_r_beyond_quarter_rejected(self):
        vec = ExponentVector((-0.5, -0.3, 0.3, 0.5))
        assert not rodier_class(vec).in_list

    def test_zeros_not_in_list(self):
        vec = ExponentVector((0.0, 0.0, 0.0, 0.0))
        assert not rodier_class(vec).in_list

    def test_sorted_enforced(self):
        with pytest.raises(ValueError):
            ExponentVector((1, 0, 0, 0))

    def test_exact_and_float_agree_on_random_probes(self):
        import random

        rng = random.Random(20260808)
        agree = 0
        for _ in range(1000):
            kind = rng.randrange(5)
            if kind == 0:
                r = Fraction(rng.randrange(0, 9), 32)  # r in [0, 1/4]
                exact = tuple(sorted((-Fraction(1, 2), -r, r, Fraction(1, 2))))
            elif kind == 1:
                exact = (-Fraction(1, 2),) * 2 + (Fraction(1, 2),) * 2
            elif kind == 2:
                exact = (-Fraction(3, 2), -Fraction(1, 2), Fraction(1, 2), Fraction(3, 2))
            elif kind == 3:
                r = Fraction(rng.randrange(9, 17), 32)  # r beyond the boundary
                exact = tuple(sorted((-Fraction(1, 2), -r, r, Fraction(1, 2))))
            else:
                vals = sorted(Fraction(rng.randrange(-8, 9), 4) for _ in range(4))
                exact = tuple(vals)
            exact_verdict = rodier_class(ExponentVector(exact))
            float_verdict = rodier_class(
                ExponentVector(tuple(float(x) for x in exact)), tol=1e-9
            )
            assert exact_verdict.family == float_verdict.family
            if exact_verdict.family == "A":
                assert float(exact_verdict.r) == pytest.approx(float(float_verdict.r), abs=1e-9)
            agree += 1
        assert agree == 1000


class TestSelfDualTwist:
    def test_units(self):
        p = GL4Param(tuple(as_char(1) for _ in range(4)))
        assert check_selfdual_twist(p, 1)

    def test_distinct_primes_fail(self):
        p = GL4Param(tuple(as_char(x) for x in (2, 3, 5, 7)))
        # the inverse multiset is {1/2, 1/3, 1/5, 1/7}
        assert not check_selfdual_twist(p, 1)


class TestSerialization:
    def test_exact_roundtrip_bitstable(self):
        p = transfer_gsp4_to_gl4(
            UnramChar.from_exact(2, Fraction(1, 3), 7),
            UnramChar.from_exact(1, Fraction(1, 4), 7),
            UnramChar.from_exact(Fraction(1, 2), 0, 7),
        )
        doc = param_to_json(p)
        text = json.dumps(doc, sort_keys=True)
        again = param_from_json(json.loads(text))
        assert again == p
        assert json.dumps(param_to_json(again), sort_keys=True) == text

    def test_gl2_roundtrip(self):
        p = GL2Param.make(1 + 1j, 2 - 0.5j)
        again = param_from_json(param_to_json(p))
        assert chars_equal(again.alpha, p.alpha) and chars_equal(again.beta, p.beta)
        assert chars_equal(again.mu, p.mu)

    def test_gsp4_roundtrip(self):
        p = langlands_param_from_induction(2, 3, 1)
        again = param_from_json(param_to_json(p))
        assert again.to_tuple() == p.to_tuple()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            param_from_json({"kind": "so7", "entries": [[1, 0]]})

    @given(exact_chars, exact_chars, exact_chars)
    @settings(max_examples=100, deadline=None)
    def test_exact_roundtrip_property(self, c0, c1, c2):
        p = transfer_gsp4_to_gl4(c0, c1, c2)
        text = json.dumps(param_to_json(p), sort_keys=True)
        again = param_from_json(json.loads(text))
        assert again == p


class TestThreadSafety:
    def test_concurrent_transfers_agree(self):
        """All values are immutable and operations pure; many threads
        computing the same chain must agree with the serial result."""
        from concurrent.futures import ThreadPoolExecutor

        def chain(k):
            c0, c1, c2 = complex(2 + k), complex(3, k), complex(1, -k)
            out = transfer_gsp4_to_gl4(c0, c1, c2)
            return check_selfdual_twist(out, c0), out.product().value

        serial = [chain(k) for k in range(32)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(chain, range(32)))
        assert parallel == serial
