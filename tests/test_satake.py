import cmath
import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
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
    PRIME_POWER_TABLE_CAP,
    GSp4Param,
    UnramChar,
    MATCH_TOL,
    _is_prime_power,
    _matching_table,
    as_char,
    chars_equal,
    check_place,
    complex_pairs,
    check_places,
    check_selfdual_twist,
    exponents,
    gsp4_to_gl4_embed,
    match_multiset_rows,
    match_multisets,
    param_from_json,
    param_to_json,
    place_table,
    rational,
    rodier_class,
    theta_lift_params,
    transfer_gsp4_to_gl4,
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

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matching_table_against_permutations(self, d):
        # entry (i, j) of mask m is bit d * i + j; a perfect matching is a
        # permutation whose every entry is set
        table = _matching_table(d)
        masks = np.arange(1 << d * d)
        bits = (masks[:, None] >> np.arange(d * d) & 1).astype(bool).reshape(-1, d, d)
        want = np.zeros(len(masks), dtype=bool)
        for perm in permutations(range(d)):
            want |= bits[:, range(d), perm].all(axis=1)
        assert table.shape == want.shape and (table == want).all()
        assert not table.flags.writeable

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_agree_with_scalar_matching_on_near_ties(self, d):
        # entries drawn from a few values, then moved by about MATCH_TOL, so
        # that many entries are equal within tolerance and some just miss
        rng = np.random.default_rng(d)
        centers = np.array([1, 1j, -1 + 0.5j, 2.5, 1e-9])
        xs = rng.choice(centers, size=(400, d))
        ys = np.take_along_axis(xs, np.argsort(rng.random((400, d)), axis=1), axis=1)
        xs, ys = (z + MATCH_TOL * rng.uniform(-1.5, 1.5, z.shape) * np.exp(2j * np.pi * rng.random(z.shape))
                  for z in (xs, ys))
        for a, b in ((xs, ys), (ys, xs)):
            got = match_multiset_rows(a, b)
            want = [match_multisets(x, y) for x, y in zip(a.tolist(), b.tolist())]
            assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    def test_rows_whose_difference_overflows_do_not_match(self):
        xs = np.array([[1.5e308 + 0j, 1.0]])
        with np.errstate(all="raise"):
            assert match_multiset_rows(xs, -xs).tolist() == [False]


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
    """``check_place``, the scalar check of one place."""

    def test_prime_powers_agree_with_trial_division(self):
        for n in range(10**4):
            ok = prime_power_by_trial_division(n)
            if ok:
                assert check_place(n) == n
            else:
                with pytest.raises(ValueError, match="prime power"):
                    check_place(n)

    @pytest.mark.parametrize("q, ok", [(2**61 - 1, True), (3**45, True), (10**18 + 3, True),
                                       ((2**31 - 1) * (2**61 - 1), False), (7**2 * 11, False),
                                       (PRIME_POWER_LIMIT - 1, False),
                                       # strong pseudoprimes to the first 4, 8, 11 and 12 prime bases
                                       (3215031751, False), (341550071728321, False),
                                       (3825123056546413051, False), (318665857834031151167461, False)])
    def test_large_cardinalities(self, q, ok):
        if ok:
            assert check_place(q) == q
        else:
            with pytest.raises(ValueError):
                check_place(q)

    def test_beyond_exact_range_rejected(self):
        with pytest.raises(ValueError, match="below"):
            check_place(PRIME_POWER_LIMIT)


def first_place_error(qs):
    """Reference for ``check_places``: ``check_place`` on each q in turn."""
    try:
        for q in qs:
            check_place(q)
    except ValueError as exc:
        return str(exc)
    return None


CAP = PRIME_POWER_TABLE_CAP


class TestCheckPlaces:
    def test_table_matches_scalar_check(self):
        # 1 for a prime, 2 for a proper prime power: the prime powers p^k, k >= 2, below 2^16
        small = [p for p in range(2, 2**8) if all(p % d for d in range(2, p))]
        proper = {p**k for p in small for k in range(2, 16) if p**k < 2**16}
        reference = [(2 if n in proper else 1) if _is_prime_power(n) else 0 for n in range(2**16)]
        for k in range(0, 17):  # every size: at 2^7 the last power of 5 is 125
            table = place_table(2**k)
            assert table.dtype == np.uint8 and table.tolist() == reference[: 2**k]
            assert not table.flags.writeable

    @pytest.mark.parametrize("qs", [
        [], [2, 3, 4, 5, 7, 8, 9], [0], [1], [0, 1, 2], [-7, -1, 3], [-(2**63), 2],
        [2, 3, 6, 10], [4, 49, 121, 1331, 1332], [CAP - 1], [CAP - 3, CAP - 1],
        [CAP, CAP + 1], [CAP + 1], [2, 3, CAP, 10**18 + 3], [10**18], [10**18 + 3],
        [7, 10**18, 10**18 + 3], [6, CAP + 1, 10**18], [5, CAP + 1, 10**18],
        [3, 2**31 - 1, 2**61 - 1, 3**39], [2, (2**31 - 1) * 3],
    ])
    def test_same_error_as_a_place_loop(self, qs):
        qs = np.array(qs, dtype=np.int64)
        try:
            check_places(qs)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == first_place_error(qs.tolist())


class TestExponents:
    def test_units(self):
        p = GL4Param(tuple(as_char(1) for _ in range(4)))
        assert exponents(p, 5).e == (0.0, 0.0, 0.0, 0.0)

    def test_half_exponents(self):
        q = 5
        entries = (
            UnramChar.from_exact(Fraction(1, 2), 0, q),
            UnramChar.from_exact(Fraction(-1, 2), 0, q),
            UnramChar.from_exact(0, 0, q),
            UnramChar.from_exact(0, Fraction(1, 2), q),
        )
        vec = exponents(GL4Param(entries), q)
        assert vec.e == (Fraction(-1, 2), 0, 0, Fraction(1, 2))
        assert vec.is_exact

    def test_direct_logarithms(self):
        p = GL4Param(tuple(as_char(x) for x in (3, Fraction(1, 3), 27, Fraction(1, 27))))
        vec = exponents(p, 3)
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


class TestComplexPairs:
    @pytest.mark.parametrize("values, ndim, want", [
        ([[1, 0], [0.5, -2]], 2, [1, 0.5 - 2j]),
        ([[[1.5, 0]], [[0, 2]]], 3, [[1.5], [2j]]),
        ([3, 4], 1, 3 + 4j),
        # integers numpy holds as int64 or uint64, alone or with floats
        ([[-(2**63), 2**64 - 1]], 2, [complex(-(2**63), 2**64 - 1)]),
        ([[2**63, 0.5]], 2, [complex(2**63, 0.5)]),
        # tuples and numpy scalars, as library callers pass them
        ([(1.0, 2.0), [3, 4.0]], 2, [1 + 2j, 3 + 4j]),
        ([[np.float64(1.5), np.int64(-2)]], 2, [1.5 - 2j]),
    ])
    def test_accepted(self, values, ndim, want):
        z = complex_pairs(values, ndim, "bad")
        assert z.dtype == complex and z.tolist() == want

    @pytest.mark.parametrize("values, ndim", [
        ([[True, 0.0]], 2), ([[1.0, False]], 2), ([True, 1.0], 1),
        ([[2**64, 0.0]], 2), ([[-(2**63) - 1, 0.0]], 2),  # beyond what numpy holds as an integer
        ([[1.0], [2.0]], 2), ([[1.0, 2.0, 3.0]], 2),  # not pairs
        ([[1.0, 2.0]], 1), ([[1.0, 2.0]], 3), ([], 1), ([[]], 2),  # not nested ndim deep
        ([[np.bool_(True), 0.0]], 2), (np.array([[True, False]]), 2), ([[1.0, 2j]], 2),
        ([[1.0, None]], 2), ([[1.0, "2"]], 2), ("12", 1), ({"1": 2}, 1),
        ([[1.0, 2.0], [3.0]], 2),  # ragged: the caller's message, not numpy's
    ])
    def test_refused(self, values, ndim):
        with pytest.raises(ValueError, match="^bad$"):
            complex_pairs(values, ndim, "bad")


class TestRational:
    @pytest.mark.parametrize("value, want", [
        (3, Fraction(3)), (-(2**70), Fraction(-(2**70))),
        (0.1, Fraction(3602879701896397, 2**55)),  # a float's exact binary value
        (-0.0, Fraction(0)), ("-1/2", Fraction(-1, 2)), (" 3/6 ", Fraction(1, 2)),
        ("0.1", Fraction(1, 10)), ("1e-5", Fraction(1, 10**5)), ("-0/3", Fraction(0)),
        # the largest decimal exponents and the longest string read
        ("1e1000", Fraction(10**1000)), ("2E-1_000 ", Fraction(2, 10**1000)),
        pytest.param("1" * 1000, Fraction(int("1" * 1000)), id="1000_digits"),
    ])
    def test_accepted(self, value, want):
        assert rational(value, "r") == want

    @pytest.mark.parametrize("value", [True, False, None, [1], {"r": 1}, math.inf, -math.inf, math.nan,
                                       "1/0", "x", "", "inf", "1/2/3", 1j,
                                       "1e1001", "0e-1001", "0e3000000", "1e999999999",
                                       pytest.param("1" * 1001, id="1001_digits"),
                                       pytest.param(" " * 1000 + "1", id="1001_chars_padded")])
    def test_refused(self, value):
        with pytest.raises(ValueError, match=r"^r must be an integer, a finite float or a rational string, got "):
            rational(value, "r")

    @pytest.mark.parametrize("length, shown", [(38, "'" + "x" * 38 + "'"),
                                               (39, "'" + "x" * 39 + "... (41 characters)"),
                                               (5000, "'" + "x" * 39 + "... (5002 characters)")])
    def test_refused_value_shown_to_40_characters(self, length, shown):
        with pytest.raises(ValueError) as info:
            rational("x" * length, "r")
        assert str(info.value) == f"r must be an integer, a finite float or a rational string, got {shown}"


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
