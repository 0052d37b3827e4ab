import cmath
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp4transfer import satake
from gsp4transfer.isobaric import (
    REASON_CONTRAGREDIENT,
    REASON_GL1_TWIST,
    REASON_NONZERO_TWIST,
    REASON_THREE_BLOCKS,
    REASON_UNITARITY,
    ConstituentsNotDistinct,
    CuspidalSymbol,
    GSp4Descriptor,
    InsufficientLocalData,
    IsobaricRep,
    NotUnitaryNormalized,
    SymbolRegistry,
    associate_match,
    descriptor_from_json,
    dual,
    equivalent,
    isobaric,
    jiang_case_analysis,
    load_document,
    pole_order_at_one,
    registry_from_json,
    reps_equivalent,
    rows_at,
    rs_factorization,
    transfer,
    transfer_conditions,
    validate_transfer_shape,
)
from gsp4transfer.satake import (
    MATCH_TOL,
    CentralCharMismatch,
    UnramChar,
    match_multisets,
    perfect_matching,
)


def unit(theta):
    return cmath.exp(1j * theta)


def gl2_local(rng, places):
    """Unit-circle GL(2) data at ``places``, as the qs= and params= of ``create``."""
    params = []
    for _ in places:
        t = rng.uniform(0.1, 3.0)
        params.append((unit(t), unit(-t)))
    return {"qs": list(places), "params": params}


def local_params(sym):
    """A symbol's local data per place: q -> tuple of UnramChar."""
    return {q: tuple(map(UnramChar, row)) for q, row in zip(sym.qs.tolist(), sym.params.tolist())}


@pytest.fixture
def places():
    return [2, 3, 5, 7, 11]


@pytest.fixture
def registry():
    return SymbolRegistry()


class TestRegistry:
    def test_dual_of_dual_is_self(self, registry):
        sym = registry.create("sigma", 2, central_char="w")
        assert sym.dual().dual() is sym

    def test_dual_local_params_are_inverse(self, registry, places):
        rng = random.Random(1)
        sym = registry.create("sigma", 2, **gl2_local(rng, places))
        dual_sym = sym.dual()
        for p in places:
            inv = [x.inverse() for x in local_params(sym)[p]]
            assert all(
                abs(a.value - b.value) < 1e-12
                for a, b in zip(local_params(dual_sym)[p], sorted(inv, key=lambda c: (c.value.real, c.value.imag)))
            ) or True  # multiset comparison below is the real check
            from gsp4transfer.satake import match_multisets

            assert match_multisets(local_params(dual_sym)[p], inv)

    def test_self_dual_requires_inverse_closed(self, registry, places):
        with pytest.raises(ValueError):
            registry.create(
                "bad", 2, self_dual=True, qs=[places[0]], params=[(2 + 0j, 3 + 0j)]
            )

    def test_self_dual_accepts_unit_pairs(self, registry, places):
        rng = random.Random(2)
        sym = registry.create("sd", 2, self_dual=True, **gl2_local(rng, places))
        assert sym.dual() is sym

    @pytest.mark.parametrize("qs", [[2.9, 3.2], [2 + 0j, 3 + 0j], ["2", "3"], [True, True]])
    def test_non_integer_places_refused(self, registry, qs):
        with pytest.raises(ValueError, match="^symbol a: places must be integers$"):
            registry.create("a", 1, qs=qs, params=[(1 + 0j,), (1 + 0j,)])
        assert list(registry) == []

    @pytest.mark.parametrize("qs", [[2**63], [2, 2**63], [3, 3**41],
                                    np.array([2**63 + 3], dtype=np.uint64)])
    def test_places_beyond_int64_refused(self, registry, qs):
        with pytest.raises(ValueError, match="^symbol a: a place is beyond the int64 range$"):
            registry.create("a", 1, qs=qs, params=[(1 + 0j,)] * len(qs))

    def test_uint64_places_in_range_accepted(self, registry):
        sym = registry.create("a", 1, qs=np.array([3, 2**61 - 1], dtype=np.uint64), params=[(1 + 0j,)] * 2)
        assert sym.qs.dtype == np.int64 and sym.qs.tolist() == [3, 2**61 - 1]

    def test_no_places(self, registry):
        sym = registry.create("a", 2, qs=[], params=[])
        assert sym.qs.dtype == np.int64 and sym.params.shape == (0, 2)

    def test_duplicate_id_rejected(self, registry):
        registry.create("x", 2)
        with pytest.raises(ValueError):
            registry.create("x", 2)

    def test_taken_dual_id_registers_nothing(self, registry):
        registry.create("a^", 2)
        with pytest.raises(ValueError, match="symbol id 'a\\^' already registered"):
            registry.create("a", 2)
        assert [sym.id for sym in registry] == ["a^", "a^^"]

    def test_degree_out_of_range(self, registry):
        with pytest.raises(ValueError):
            registry.create("big", 5)

    def test_equivalence_via_local_data(self, places):
        rng = random.Random(3)
        data = gl2_local(rng, places)
        reg1, reg2 = SymbolRegistry(), SymbolRegistry()
        a = reg1.create("a", 2, **data)
        b = reg2.create("b", 2, **data)
        c = reg2.create("c", 2, **gl2_local(rng, places))
        assert equivalent(a, b)
        assert not equivalent(a, c)
        assert not equivalent(a, reg1.create("deg1", 1, qs=places, params=[(1 + 0j,)] * 5))

    @pytest.mark.parametrize("at", [0, 7, 8, 11])
    def test_equivalence_decided_at_every_common_place(self, at):
        # a difference at any one common place, first, inner or last, counts
        qs = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        params = np.exp(1j * np.arange(24.0)).reshape(12, 2)
        other = params.copy()
        other[at, 0] *= 1.001
        reg = SymbolRegistry()
        a, b, c = (reg.create(sid, 2, qs=qs, params=p) for sid, p in (("a", params), ("b", params), ("c", other)))
        assert equivalent(a, b) and not equivalent(a, c) and not equivalent(c, a)

    @pytest.mark.parametrize("value", [
        1e308 + 1e308j,  # 1 / value underflows to zero
        1.7976931348623157e308,  # 1 / value is finite, but its own inverse overflows
    ])
    def test_undeclared_dual_checks_its_values(self, registry, value):
        # the symbol refuses the data its dual could not hold, so the dual is never built
        fault = "a local parameter at q=2 has an inverse that is zero or has no finite inverse"
        with pytest.raises(ValueError, match=f"^symbol a: {fault}$"):
            registry.create("a", 1, qs=[2, 3], params=[(value,), (1 + 0j,)])
        assert list(registry) == []

    def test_equivalence_is_symmetric(self, registry, places):
        a = registry.create("a", 2, qs=[places[0]], params=[(1, 1 + 1.8e-9)])
        b = registry.create("b", 2, qs=[places[0]], params=[(1 + 0.9e-9, 1 - 0.95e-9)])
        assert equivalent(a, b) and equivalent(b, a)


class TestSymbolConstructor:
    PLACES = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]

    def rows(self, order):
        qs = np.array(self.PLACES, dtype=np.int64)[order]
        return qs, np.exp(1j * qs[:, None] * np.array([0.3, -0.3]))

    def test_place_order_does_not_matter(self):
        n = len(self.PLACES)
        want = CuspidalSymbol("a", 2, "a", "1", *self.rows(np.arange(n)))
        assert want.qs.tolist() == self.PLACES
        for order in (np.arange(n)[::-1], np.random.default_rng(3).permutation(n)):
            got = CuspidalSymbol("a", 2, "a", "1", *self.rows(order))
            assert got.qs.view(np.uint64).tolist() == want.qs.view(np.uint64).tolist()
            assert got.params.view(np.uint64).tolist() == want.params.view(np.uint64).tolist()
            assert not (got.qs.flags.writeable or got.params.flags.writeable)

    def test_caller_arrays_stay_writeable(self):
        qs, params = self.rows(np.arange(len(self.PLACES)))
        CuspidalSymbol("a", 2, "a", "1", qs, params)
        assert qs.flags.writeable and params.flags.writeable

    def test_writeable_arrays_are_copied(self):
        qs, params = self.rows(np.arange(len(self.PLACES)))
        sym = CuspidalSymbol("a", 2, "a", "1", qs, params)
        want_qs, want_params = sym.qs.copy(), sym.params.copy()
        qs[0], params[0, 0] = 3, 5.0
        assert not (np.shares_memory(sym.qs, qs) or np.shares_memory(sym.params, params))
        assert np.array_equal(sym.qs, want_qs) and np.array_equal(sym.params, want_params)

    def test_read_only_arrays_that_own_their_memory_are_kept(self):
        qs, params = self.rows(np.arange(len(self.PLACES)))
        qs.flags.writeable = params.flags.writeable = False
        assert qs.flags.owndata and params.flags.owndata
        sym = CuspidalSymbol("a", 2, "a", "1", qs, params)
        assert np.shares_memory(sym.qs, qs) and np.shares_memory(sym.params, params)

    def test_read_only_views_are_copied(self):
        qs, params = self.rows(np.arange(len(self.PLACES)))
        views = qs[:], params[:]
        for view in views:
            view.flags.writeable = False
        sym = CuspidalSymbol("a", 2, "a", "1", *views)
        want_qs, want_params = sym.qs.copy(), sym.params.copy()
        qs[0], params[0, 0] = 3, 5.0  # through the writeable base
        assert not (np.shares_memory(sym.qs, qs) or np.shares_memory(sym.params, params))
        assert np.array_equal(sym.qs, want_qs) and np.array_equal(sym.params, want_params)

    def test_a_materialized_dual_shares_the_places(self, registry):
        qs, params = self.rows(np.arange(len(self.PLACES)))
        sym = registry.create("a", 2, qs=qs, params=params)
        assert sym.qs.flags.owndata and sym.dual().qs is sym.qs

    @pytest.mark.parametrize("qs", [[2, 3, 5, 3], [5, 3, 5], [7, 7], [3, 2, 3, 2]])
    def test_duplicate_place_refused_in_any_order(self, qs):
        with pytest.raises(ValueError, match=r"^symbol a: a place is sampled twice or a parameter is zero$"):
            CuspidalSymbol("a", 1, "a", "1", qs, np.ones((len(qs), 1)))

    @pytest.mark.parametrize("qs", [[2, 3, 5], [5, 3, 2]])
    def test_zero_parameter_refused(self, qs):
        with pytest.raises(ValueError, match=r"^symbol a: a place is sampled twice or a parameter is zero$"):
            CuspidalSymbol("a", 2, "a", "1", qs, [[1, 1], [1, -0.0], [1, 1]])

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
    def test_smallest_bad_place_named(self, order):
        # two bad places of each kind: the message names the smaller, in any order
        qs = np.array([3, 5, 7])[order]
        for bad, fault in ((math.inf, "is not finite"), (1e-320, "has no finite inverse"),
                           (1e308 + 1e308j, "has an inverse that is zero or has no finite inverse")):
            params = np.ones((3, 2), dtype=complex)
            params[qs == 5, 1] = params[qs == 7, 0] = bad
            with pytest.raises(ValueError, match=f"^symbol a: a local parameter at q=5 {fault}$"):
                CuspidalSymbol("a", 2, "a", "1", qs, params)

    @staticmethod
    def refusal_by_division(qs, params):
        """The finiteness refusal that dividing every value gives, or None: the constructor's
        checks before its range test."""
        with np.errstate(all="ignore"):
            inverse = 1 / params
            for values, fault in ((params, "is not finite"), (inverse, "has no finite inverse"),
                                  (1 / inverse, "has an inverse that is zero or has no finite inverse")):
                finite = np.isfinite(values)
                if not finite.all():
                    return f"symbol a: a local parameter at q={int(qs[~finite.all(axis=1)][0])} {fault}"
        return None

    def test_range_test_agrees_with_the_divisions(self):
        """Real and imaginary parts from zero, subnormals, 1e+-308, +-inf, nan and both edges of the
        range [2^-500, 2^500] with their outer neighbours, in every pair."""
        edges = [0.0, 5e-324, -2.0**-1030, 2.0**-1022, 1e-308, -1e-308, 2.0**-500, np.nextafter(2.0**-500, 0),
                 1.0, 2.0**500, -np.nextafter(2.0**500, math.inf), 1e308, -1.7976931348623157e308,
                 math.inf, -math.inf, math.nan]
        qs = np.array([3, 5])
        for re_part, im_part in itertools.product(edges, repeat=2):
            z = complex(re_part, im_part)
            if z == 0:  # refused before, as a zero parameter
                continue
            params = np.array([[1, z], [z, 1 + 1j]])
            try:
                CuspidalSymbol("a", 2, "a", "1", qs, params)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == self.refusal_by_division(qs, params), z

    @pytest.mark.parametrize("qs, params, message", [
        ([2, 3], [[1, 2, 3, 4]], r"parameters of shape \(1, 4\), expected \(2, 2\)"),
        ([2, 3], [[1, 1], [1, 1], [1, 1]], r"parameters of shape \(3, 2\), expected \(2, 2\)"),
        ([2, 3], [1, 1, 1], r"parameters of shape \(3,\), expected \(2, 2\)"),
        ([[2, 3]], [[1, 1], [1, 1]], "places must be a flat sequence"),
    ], ids=["one_row_of_four", "three_rows", "flat_three", "nested_places"])
    def test_misshaped_local_data_refused(self, qs, params, message):
        with pytest.raises(ValueError, match=f"^symbol a: {message}$"):
            CuspidalSymbol("a", 2, "a", "1", qs, params)

    def test_degree_and_place_errors_name_the_symbol(self):
        with pytest.raises(ValueError, match=r"^symbol a: degree must be in 1\.\.4, got 9$"):
            CuspidalSymbol("a", 9, "a", "1", [2], [[1] * 9])
        with pytest.raises(ValueError, match=r"^symbol a: residue cardinality must be a prime power >= 2, got 6$"):
            CuspidalSymbol("a", 1, "a", "1", [2, 6], [[1], [1]])

    @pytest.mark.parametrize("length", [1, 39, 40, 41, 5000])
    def test_long_id_clipped_in_messages(self, length):
        sid = "a" * length
        label = re.escape(sid if length <= 40 else f"{'a' * 40}... ({length} characters)")
        with pytest.raises(ValueError, match=f"^symbol {label}: degree must be in 1\\.\\.4, got 0$"):
            CuspidalSymbol(sid, 0, sid, "1", [], [])
        sym = CuspidalSymbol(sid, 1, sid, "1", [2], [[1]])
        with pytest.raises(InsufficientLocalData, match=f"^symbol {label} has no local data at q=3$"):
            rows_at(sym, np.array([3]))


class TestRowsAt:
    PRIMES = np.array(satake.prime_sieve(100).nonzero()[0], dtype=np.int64)  # the 25 primes below 100

    @pytest.fixture
    def sym(self):
        qs = self.PRIMES
        return CuspidalSymbol("a", 2, "a", "1", qs, np.exp(1j * qs[:, None] * np.array([0.3, -0.3])))

    @pytest.mark.parametrize("run", [slice(5, 12), slice(0, 7), slice(10, 25), slice(0, 25), slice(4, 4)],
                             ids=["middle", "from_row_0", "to_last_row", "full", "empty"])
    def test_run_of_places_is_a_slice(self, sym, run):
        qs = self.PRIMES[run]
        rows = rows_at(sym, qs)
        assert isinstance(rows, slice)
        assert sym.params[rows].tobytes() == sym.params[np.searchsorted(sym.qs, qs)].tobytes()

    def test_subset_is_gathered(self, sym):
        qs = self.PRIMES[[1, 4, 9, 24]]
        rows = rows_at(sym, qs)
        assert not isinstance(rows, slice)
        assert sym.params[rows].tobytes() == sym.params[np.searchsorted(sym.qs, qs)].tobytes()

    def test_run_with_missing_places_refused(self):
        qs = np.delete(self.PRIMES, [8, 11])  # no data at 23 and 37
        sym = CuspidalSymbol("b", 1, "b", "1", qs, np.ones((len(qs), 1)))
        with pytest.raises(InsufficientLocalData, match="^symbol b has no local data at q=23$"):
            rows_at(sym, self.PRIMES[5:15])
        with pytest.raises(InsufficientLocalData, match="^symbol b has no local data at q=37$"):
            rows_at(sym, self.PRIMES[9:15])

    def test_places_past_the_last_refused(self, sym):
        with pytest.raises(InsufficientLocalData, match="^symbol a has no local data at q=101$"):
            rows_at(sym, np.array([89, 97, 101, 103]))


class TestDual:
    def test_termwise(self, registry):
        s = registry.create("s", 2)
        t = registry.create("t", 2)
        rep = isobaric([s, t])
        d = dual(rep)
        assert [sym.id for sym in d.constituents] == ["s^", "t^"]

    def test_involution(self, registry):
        s = registry.create("s", 2)
        t = registry.create("t", 2)
        rep = isobaric([s, t])
        assert dual(rep) != rep and dual(dual(rep)) == rep

    def test_self_dual_constituents_fixed(self, registry):
        s = registry.create("s", 2, self_dual=True)
        rep = isobaric([s])
        assert dual(rep).constituents == (s,)

    def test_empty_sum_refused(self):
        with pytest.raises(ValueError, match="^isobaric sum needs at least one constituent$"):
            IsobaricRep(())


class TestRSFactorization:
    def test_two_by_two(self, registry):
        s1, s2 = registry.create("s1", 2), registry.create("s2", 2)
        t1, t2 = registry.create("t1", 2), registry.create("t2", 2)
        factors = rs_factorization(isobaric([s1, s2]), isobaric([t1, t2]))
        assert len(factors) == 4
        assert {(sigma.id, tau.id) for sigma, tau in factors} == {
            ("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t2"),
        }

    def test_cuspidal_pair(self, registry):
        s = registry.create("s", 4)
        t = registry.create("t", 4)
        assert len(rs_factorization(isobaric([s]), isobaric([t]))) == 1

    def test_three_by_one(self, registry):
        syms = [registry.create(f"s{i}", 1) for i in range(3)]
        tau = registry.create("tau", 2)
        factors = rs_factorization(isobaric(syms), isobaric([tau]))
        assert factors == [(sym, tau) for sym in syms]

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_bilinearity(self, t1, t2):
        reg = SymbolRegistry()
        left = isobaric([reg.create(f"a{i}", 1) for i in range(t1)])
        right = isobaric([reg.create(f"b{i}", 1) for i in range(t2)])
        assert len(rs_factorization(left, right)) == t1 * t2


class TestPoleOrder:
    def test_cuspidal_with_dual_is_simple(self, registry):
        s = registry.create("s", 2)
        report = pole_order_at_one(isobaric([s]), isobaric([s.dual()]))
        assert report.order == 1 and report.witnesses == ((0, 0),)

    def test_double_pole_for_dual_pair_of_sums(self, registry):
        p1, p2 = registry.create("p1", 2), registry.create("p2", 2)
        rep = isobaric([p1, p2])
        report = pole_order_at_one(rep, dual(rep))
        assert report.order == 2
        assert set(report.witnesses) == {(0, 0), (1, 1)}

    def test_no_dual_pair_no_pole(self, registry):
        reps = [registry.create(f"c{i}", 2) for i in range(4)]
        report = pole_order_at_one(isobaric(reps[:2]), isobaric(reps[2:]))
        assert report.order == 0 and report.witnesses == ()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, data):
        reg = SymbolRegistry()
        pool = [reg.create(f"s{i}", 2, self_dual=bool(i % 2)) for i in range(3)]
        pool += [s.dual() for s in pool]
        k1 = data.draw(st.integers(1, 2))
        k2 = data.draw(st.integers(1, 2))
        left = isobaric(data.draw(st.lists(st.sampled_from(pool), min_size=k1, max_size=k1)))
        right = isobaric(data.draw(st.lists(st.sampled_from(pool), min_size=k2, max_size=k2)))
        assert pole_order_at_one(left, right).order == pole_order_at_one(right, left).order


class TestTransferShapes:
    def test_admissible_cuspidal(self):
        verdict = validate_transfer_shape([(4, Fraction(0))])
        assert verdict.admissible

    def test_admissible_two_by_two(self):
        verdict = validate_transfer_shape([(2, Fraction(0)), (2, Fraction(0))])
        assert verdict.admissible

    def test_one_three_contragredient(self):
        verdict = validate_transfer_shape([(1, Fraction(3, 4)), (3, Fraction(-1, 4))])
        assert not verdict.admissible
        assert verdict.reason == REASON_CONTRAGREDIENT

    def test_three_one_twist_pole(self):
        verdict = validate_transfer_shape([(3, Fraction(1, 4)), (1, Fraction(-3, 4))])
        assert verdict.reason == REASON_GL1_TWIST

    def test_four_singles(self):
        verdict = validate_transfer_shape([(1, Fraction(0))] * 4)
        assert verdict.reason == REASON_GL1_TWIST

    def test_two_one_one_all_zero(self):
        verdict = validate_transfer_shape(
            [(2, Fraction(0)), (1, Fraction(0)), (1, Fraction(0))]
        )
        assert verdict.reason == REASON_THREE_BLOCKS

    def test_two_two_with_twists(self):
        verdict = validate_transfer_shape([(2, Fraction(1, 2)), (2, Fraction(-1, 2))])
        assert verdict.reason == REASON_NONZERO_TWIST

    def test_unitarity_violation(self):
        verdict = validate_transfer_shape([(4, Fraction(1, 2))])
        assert verdict.reason == REASON_UNITARITY

    def test_wrong_total_degree(self):
        with pytest.raises(ValueError):
            validate_transfer_shape([(2, Fraction(0))])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            validate_transfer_shape([(2, Fraction(-1, 2)), (2, Fraction(1, 2))])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_total_over_all_shapes(self, data):
        """Every well-formed shape is either admissible or carries a reason."""
        partition = data.draw(
            st.sampled_from([(4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 1, 2), (1, 1, 1, 1)])
        )
        raw = [
            Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 4)))
            for _ in partition
        ]
        rs = sorted(raw, reverse=True)
        shape = list(zip(partition, rs))
        verdict = validate_transfer_shape(shape)
        if verdict.admissible:
            assert sorted(partition) in ([4], [2, 2])
            assert all(r == 0 for r in rs)
        else:
            assert verdict.reason


class TestTransfer:
    def test_lifted_pair(self, registry):
        p1 = registry.create("P1", 2, central_char="chi")
        p2 = registry.create("P2", 2, central_char="chi")
        desc = GSp4Descriptor(True, "chi", pair=(p1, p2), gross_char_id="chi")
        rep = transfer(desc)
        assert [s.id for s in rep.constituents] == ["P1", "P2"]
        assert rep.degree == 4
        conds = transfer_conditions(desc)
        assert any("P1 !~ P2" in c for c in conds)

    def test_not_lifted_is_cuspidal(self, registry):
        big = registry.create("Pi", 4, central_char="w2")
        desc = GSp4Descriptor(False, "w", cuspidal=big)
        rep = transfer(desc)
        assert rep.constituents == (big,)
        assert any("w^2" in c for c in transfer_conditions(desc))

    def test_equal_constituents_rejected(self, registry):
        p = registry.create("P", 2, central_char="chi")
        with pytest.raises(ConstituentsNotDistinct):
            GSp4Descriptor(True, "chi", pair=(p, p), gross_char_id="chi")

    def test_central_char_mismatch_rejected(self, registry):
        p1 = registry.create("P1", 2, central_char="chi")
        p2 = registry.create("P2", 2, central_char="other")
        with pytest.raises(CentralCharMismatch):
            GSp4Descriptor(True, "chi", pair=(p1, p2), gross_char_id="chi")

    def test_locally_equal_constituents_rejected(self, places):
        rng = random.Random(7)
        data = gl2_local(rng, places)
        reg = SymbolRegistry()
        p1 = reg.create("P1", 2, central_char="chi", **data)
        p2 = reg.create("P2", 2, central_char="chi", **data)
        with pytest.raises(ConstituentsNotDistinct):
            GSp4Descriptor(True, "chi", pair=(p1, p2), gross_char_id="chi")


def lifted_descriptor(registry, name1, name2, cc="chi"):
    syms = []
    for name in (name1, name2):
        syms.append(registry.get(name) if name in registry else registry.create(name, 2, central_char=cc))
    return GSp4Descriptor(True, cc, pair=tuple(syms), gross_char_id=cc)


class TestCaseAnalysis:
    def test_case_one_simple_pole(self, registry):
        a = registry.create("A", 4)
        d1 = GSp4Descriptor(False, "w", cuspidal=a)
        d2 = GSp4Descriptor(False, "w", cuspidal=a.dual())
        analysis = jiang_case_analysis(d1, d2)
        assert analysis.label == "1" and analysis.report.order == 1

    def test_case_one_no_pole(self, registry):
        a, b = registry.create("A", 4), registry.create("B", 4)
        analysis = jiang_case_analysis(
            GSp4Descriptor(False, "w", cuspidal=a), GSp4Descriptor(False, "w", cuspidal=b)
        )
        assert analysis.label == "1" and analysis.report.order == 0

    def test_case_two_holomorphic(self, registry):
        a = registry.create("A", 4)
        d1 = GSp4Descriptor(False, "w", cuspidal=a)
        d2 = lifted_descriptor(registry, "P1", "P2")
        analysis = jiang_case_analysis(d1, d2)
        assert analysis.label == "2" and analysis.report.order == 0

    def test_case_3b_double_pole(self, registry):
        d1 = lifted_descriptor(registry, "P1", "P2")
        reg = registry
        d2 = GSp4Descriptor(
            True,
            "~chi",
            pair=(reg.get("P1").dual(), reg.get("P2").dual()),
            gross_char_id="~chi",
        )
        analysis = jiang_case_analysis(d1, d2)
        assert analysis.label == "3b" and analysis.report.order == 2
        assert reps_equivalent(transfer(d2), dual(transfer(d1)))

    def test_case_3c_simple_pole(self, registry):
        p1 = registry.create("P1", 2, central_char="chi", self_dual=True)
        p2 = registry.create("P2", 2, central_char="chi")
        p3 = registry.create("P3", 2, central_char="chi")
        d1 = GSp4Descriptor(True, "chi", pair=(p1, p2), gross_char_id="chi")
        d2 = GSp4Descriptor(True, "chi", pair=(p1, p3), gross_char_id="chi")
        analysis = jiang_case_analysis(d1, d2)
        assert analysis.label == "3c" and analysis.report.order == 1

    def test_case_3a_excluded_no_pole(self, registry):
        d1 = lifted_descriptor(registry, "P1", "P2")
        d2 = lifted_descriptor(registry, "P3", "P4")
        analysis = jiang_case_analysis(d1, d2)
        assert analysis.label == "3a-excluded" and analysis.report.order == 0

    def test_exhaustive_patterns_cap_at_two(self):
        """All identification patterns respecting within-descriptor
        distinctness give pole orders exactly {0, 1, 2}, never more."""
        orders = set()
        for sd1 in (False, True):
            for sd2 in (False, True):
                for choice1 in ("dual1", "dual2", "fresh"):
                    for choice2 in ("dual1", "dual2", "fresh"):
                        reg = SymbolRegistry()
                        p11 = reg.create("p11", 2, self_dual=sd1)
                        p12 = reg.create("p12", 2, self_dual=sd2)
                        lookup = {
                            "dual1": lambda: p11.dual(),
                            "dual2": lambda: p12.dual(),
                        }

                        def pick(choice, fresh_name):
                            if choice == "fresh":
                                return reg.create(fresh_name, 2)
                            return lookup[choice]()

                        p21 = pick(choice1, "f1")
                        p22 = pick(choice2, "f2")
                        if equivalent(p21, p22):
                            continue  # violates within-descriptor distinctness
                        d1 = GSp4Descriptor(True, "1", pair=(p11, p12), gross_char_id="1")
                        d2 = GSp4Descriptor(True, "1", pair=(p21, p22), gross_char_id="1")
                        analysis = jiang_case_analysis(d1, d2)
                        orders.add(analysis.report.order)
                        assert analysis.report.order <= 2
        assert orders == {0, 1, 2}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_randomized_identifications_never_exceed_two(self, data):
        reg = SymbolRegistry()
        sd = data.draw(st.tuples(st.booleans(), st.booleans()))
        p11 = reg.create("p11", 2, self_dual=sd[0])
        p12 = reg.create("p12", 2, self_dual=sd[1])
        options = [p11.dual(), p12.dual()]
        fresh_iter = iter(range(10))

        def draw_symbol():
            pickled = data.draw(st.integers(0, 2))
            if pickled == 2:
                return reg.create(f"fresh{next(fresh_iter)}", 2)
            return options[pickled]

        p21 = draw_symbol()
        p22 = draw_symbol()
        if equivalent(p21, p22):
            return
        d1 = GSp4Descriptor(True, "1", pair=(p11, p12), gross_char_id="1")
        d2 = GSp4Descriptor(True, "1", pair=(p21, p22), gross_char_id="1")
        assert jiang_case_analysis(d1, d2).report.order <= 2

    def test_order_two_iff_transfers_contragredient(self, registry):
        d1 = lifted_descriptor(registry, "P1", "P2")
        d2 = GSp4Descriptor(
            True,
            "~chi",
            pair=(registry.get("P1").dual(), registry.get("P2").dual()),
            gross_char_id="~chi",
        )
        analysis = jiang_case_analysis(d1, d2)
        assert (analysis.report.order == 2) == reps_equivalent(
            transfer(d2), dual(transfer(d1))
        )


class TestAssociateMatch:
    def make_list(self, reg, names, places, rng):
        return [reg.create(n, 2, **gl2_local(rng, places)) for n in names]

    def test_reordering_recovered(self, places):
        rng = random.Random(11)
        reg = SymbolRegistry()
        s1, s2 = self.make_list(reg, ["s1", "s2"], places, rng)
        phi = associate_match([s1, s2], [s2, s1], places)
        assert phi == (1, 0)

    def test_identity(self, places):
        rng = random.Random(12)
        reg = SymbolRegistry()
        lst = self.make_list(reg, ["a", "b", "c"], places, rng)
        assert associate_match(lst, lst, places) == (0, 1, 2)

    def test_not_associate(self, places):
        rng = random.Random(13)
        reg = SymbolRegistry()
        s1, s2, t = self.make_list(reg, ["s1", "s2", "t"], places, rng)
        assert associate_match([s1, s2], [s1, t], places) is None

    def test_shuffle_recovers_permutation(self, places):
        rng = random.Random(14)
        reg = SymbolRegistry()
        lst = self.make_list(reg, [f"s{i}" for i in range(5)], places, rng)
        perm = list(range(5))
        rng.shuffle(perm)
        shuffled = [lst[perm[j]] for j in range(5)]
        phi = associate_match(lst, shuffled, places)
        assert phi == tuple(perm)

    def test_missing_data_raises(self, places):
        rng = random.Random(15)
        reg = SymbolRegistry()
        full = reg.create("full", 2, **gl2_local(rng, places))
        partial = reg.create("partial", 2, **gl2_local(rng, places[:2]))
        with pytest.raises(InsufficientLocalData):
            associate_match([full], [partial], places)

    def test_pooled_mismatch_is_certain(self, places):
        rng = random.Random(16)
        reg = SymbolRegistry()
        lst = self.make_list(reg, ["x", "y"], places, rng)
        corrupted = lst[0].params.copy()
        corrupted[2] = (2 + 0j, 0.5 + 0j)  # different multiset at one place
        other = reg.create("x_corrupt", 2, qs=lst[0].qs, params=corrupted)
        assert associate_match([lst[0], lst[1]], [other, lst[1]], places) is None

    def test_sample_places_are_checked(self, places):
        reg = SymbolRegistry()
        lst = self.make_list(reg, ["a"], places, random.Random(19))
        with pytest.raises(ValueError, match="must be a prime power >= 2, got 6$"):
            associate_match(lst, lst, [2, 6, 3])
        with pytest.raises(ValueError, match="^associate_match: places must be integers$"):
            associate_match(lst, lst, [2.0, 3.0])

    def test_degree_mismatch(self, places):
        rng = random.Random(17)
        reg = SymbolRegistry()
        a = reg.create("a", 2, **gl2_local(rng, places))
        b = reg.create("b", 1, qs=places, params=[(1 + 0j,)] * 5)
        assert associate_match([a], [b], places) is None


def associate_match_per_place(list1, list2, sample):
    """Reference oracle: association matching place by place through the
    ``local_params`` dicts and ``match_multisets``, with a pooled pass that
    rejects lists whose pooled multisets differ at some place."""
    places = sorted(set(sample))
    if not places:
        raise InsufficientLocalData("need at least one sampled place")
    view = {sym.id: local_params(sym) for sym in list(list1) + list(list2)}
    for sym in list(list1) + list(list2):
        for pl in places:
            if pl not in view[sym.id]:
                raise InsufficientLocalData(f"symbol {sym.id} has no local data at q={pl}")
    if len(list1) != len(list2):
        return None
    for pl in places:
        pooled1 = [x for sym in list1 for x in view[sym.id][pl]]
        pooled2 = [x for sym in list2 for x in view[sym.id][pl]]
        if not match_multisets(pooled1, pooled2):
            return None

    def compatible(j, i):
        a, b = list2[j], list1[i]
        return a.degree == b.degree and all(
            match_multisets(view[a.id][p], view[b.id][p]) for p in places
        )

    n = len(list1)
    phi = perfect_matching([[j for j in range(n) if compatible(j, i)] for i in range(n)])
    return None if phi is None else tuple(phi)


def association_case(rng):
    """Two cuspidal lists and a place sample: list2 is a permutation of list1
    in which some symbols are replaced by variants (entries reordered, one
    entry moved by 0.5 to 2 times the matching tolerance, another degree, a
    sampled place left out, unrelated data) and whose length may differ."""
    qs = sorted(rng.choice([2, 3, 4, 5, 7, 8, 9, 11], size=int(rng.integers(1, 5)), replace=False).tolist())
    counter = iter(range(10**6))

    def symbol(degree, params, places=qs):
        sid = f"s{next(counter)}"
        return CuspidalSymbol(sid, degree, sid + "^", "1", places, np.asarray(params).reshape(len(places), degree))

    def data(degree):
        return np.exp(rng.normal(scale=0.5, size=(len(qs), degree)) + 2j * np.pi * rng.random((len(qs), degree)))

    list1 = []
    for _ in range(int(rng.integers(0, 6))):
        degree = int(rng.integers(1, 5))
        twin = list1 and rng.random() < 0.2  # a second symbol with the same data
        list1.append(symbol(list1[-1].degree, list1[-1].params) if twin else symbol(degree, data(degree)))
    list2 = []
    for sym in (list1[k] for k in rng.permutation(len(list1))):
        kind = rng.choice(["same", "reorder", "perturb", "perturb", "degree", "missing", "other"],
                          p=[0.4, 0.1, 0.25, 0.1, 0.05, 0.05, 0.05])
        params = sym.params.copy()
        if kind == "same":
            list2.append(sym)
            continue
        if kind == "reorder":
            params = params[:, rng.permutation(sym.degree)]
        elif kind == "perturb":
            p, k = int(rng.integers(len(qs))), int(rng.integers(sym.degree))
            x = params[p, k]
            params[p, k] += rng.uniform(0.5, 2.0) * MATCH_TOL * max(1.0, abs(x)) * np.exp(2j * np.pi * rng.random())
        elif kind == "degree":
            degree = sym.degree % 4 + 1
            list2.append(symbol(degree, data(degree)))
            continue
        elif kind == "missing":
            keep = np.arange(len(qs)) != rng.integers(len(qs))
            list2.append(symbol(sym.degree, params[keep], [q for q, k in zip(qs, keep) if k]))
            continue
        elif kind == "other":
            params = data(sym.degree)
        list2.append(symbol(sym.degree, params))
    if list2 and rng.random() < 0.05:
        list2.pop()
    elif rng.random() < 0.05:
        list2.append(symbol(2, data(2)))
    sample = list(qs)
    if rng.random() < 0.03:
        sample.append(13)  # sampled by no symbol
    return list1, list2, sample


class TestAssociateMatchOracle:
    def test_columnar_matches_per_place_oracle(self):
        def outcome(match, case):
            try:
                return match(*case)
            except InsufficientLocalData as exc:
                return str(exc)

        seen = {"phi": 0, "none": 0, "raise": 0}
        for seed in range(1000):
            case = association_case(np.random.default_rng(seed))
            want = outcome(associate_match_per_place, case)
            assert outcome(associate_match, case) == want, seed
            seen["raise" if isinstance(want, str) else "none" if want is None else "phi"] += 1
        assert min(seen.values()) >= 100, seen


class TestDocuments:
    def build_doc(self):
        return {
            "symbols": [
                {
                    "id": "P1",
                    "degree": 2,
                    "dual": "P1d",
                    "central_char": "chi",
                    "local": {"2": [[0.6, 0.8], [0.6, -0.8]], "3": [[0, 1], [0, -1]]},
                },
                {
                    "id": "P2",
                    "degree": 2,
                    "dual": "P2d",
                    "central_char": "chi",
                    "local": {"2": [[1, 0], [1, 0]], "3": [[0.8, 0.6], [0.8, -0.6]]},
                },
            ],
            "isobaric": [{"term": "P1", "r": "0"}, {"term": "P2", "r": "0"}],
            "from_gso": True,
            "gross_char": "chi",
        }

    def test_flat_document_loads(self):
        registry, descriptors = load_document(self.build_doc())
        assert len(descriptors) == 1
        desc = descriptors[0]
        assert desc.from_gso and desc.pair[0].id == "P1"
        assert "P1d" in registry
        rep = transfer(desc)
        assert rep.degree == 4

    def test_dual_materialized_with_inverse_data(self):
        registry, _ = load_document(self.build_doc())
        p1, p1d = registry.get("P1"), registry.get("P1d")
        from gsp4transfer.satake import match_multisets

        inv = [x.inverse() for x in local_params(p1)[2]]
        assert match_multisets(local_params(p1d)[2], inv)

    def test_descriptor_array(self):
        doc = self.build_doc()
        doc.pop("isobaric")
        doc.pop("from_gso")
        doc["descriptors"] = [
            {"from_gso": True, "terms": ["P1", "P2"], "gross_char": "chi"},
            {"from_gso": True, "terms": ["P1d", "P2d"], "gross_char": "~chi"},
        ]
        registry, descriptors = load_document(doc)
        assert len(descriptors) == 2
        analysis = jiang_case_analysis(*descriptors)
        assert analysis.label == "3b" and analysis.report.order == 2

    def test_registry_roundtrip(self):
        doc = self.build_doc()
        doc["symbols"] += [
            {"id": "P1d", "degree": 2, "dual": "P1", "central_char": "~chi",
             "local": {"2": [[0.6, -0.8], [0.6, 0.8]]}},  # backfilled at q=3
            {"id": "S", "degree": 2, "dual": "S", "local": {"7": [[0.28, 0.96], [0.28, -0.96]]}},
        ]
        registry, _ = load_document(json.loads(json.dumps(doc)))
        assert [sym.id for sym in registry] == [d["id"] for d in doc["symbols"]] + ["P2d"]
        for d in doc["symbols"]:
            sym = registry.get(d["id"])
            assert (sym.degree, sym.dual_id, sym.central_char_id) == (d["degree"], d["dual"], d.get("central_char", "1"))
            places = sorted(map(int, d["local"]))
            want = np.array([d["local"][str(q)] for q in places], dtype=float).view(complex)[..., 0]
            rows = sym.qs.searchsorted(places)
            assert len(sym.qs) == len(places) + (sym.id == "P1d")
            assert sym.qs[rows].tobytes() == np.array(places, dtype=np.int64).tobytes()
            assert sym.params[rows].view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        p1, p1d = registry.get("P1"), registry.get("P1d")
        assert p1d.qs.tolist() == [2, 3]
        assert p1d.params[1].view(np.uint64).tolist() == (1 / p1.params[1]).view(np.uint64).tolist()

    def registry_with_cuspidal(self):
        """The symbols of ``build_doc`` and a self-dual degree-4 symbol C."""
        return registry_from_json(self.build_doc()["symbols"] + [{"id": "C", "degree": 4, "dual": "C"}])

    @pytest.mark.parametrize("from_gso, terms, twists, reason", [
        (True, ["P1", "P2"], ["1/2", "-1/2"], REASON_NONZERO_TWIST),
        (True, ["P1", "P2"], [-0.5, 0.5], REASON_NONZERO_TWIST),  # sorted before the lemma reads them
        (True, ["P1", "nowhere"], ["1/2", "-1/2"], REASON_NONZERO_TWIST),  # judged before the lookup
        (True, ["P1", "P2"], [1, 0], REASON_UNITARITY),
        (False, ["C"], ["1/4"], REASON_UNITARITY),
    ])
    def test_twists_judged_by_the_shape_lemma(self, from_gso, terms, twists, reason):
        registry = self.registry_with_cuspidal()
        item = {"from_gso": from_gso, "isobaric": [{"term": t, "r": r} for t, r in zip(terms, twists)]}
        with pytest.raises(NotUnitaryNormalized) as info:
            descriptor_from_json(item, registry)
        assert info.value.reason == reason
        assert str(info.value) == f"unitary_normalization: {reason}"
        # with the twists zeroed the lemma admits the shape
        item["isobaric"] = [{"term": t, "r": 0} for t in (["P1", "P2"] if from_gso else ["C"])]
        assert descriptor_from_json(item, registry).from_gso == from_gso

    @pytest.mark.parametrize("from_gso, terms", [(True, ["P1"]), (True, ["P1", "P2", "P1d"]), (False, ["C", "C"])])
    def test_nonzero_twist_on_a_wrong_term_count(self, from_gso, terms):
        # no degree-4 shape to judge: the twist is refused before the count, without a reason
        registry = self.registry_with_cuspidal()
        item = {"from_gso": from_gso, "isobaric": [{"term": t, "r": "0"} for t in terms]}
        item["isobaric"][-1]["r"] = "1"
        with pytest.raises(NotUnitaryNormalized) as info:
            descriptor_from_json(item, registry)
        assert info.value.reason is None
        item["isobaric"][-1]["r"] = "0"
        with pytest.raises(ValueError, match="exactly") as info:
            descriptor_from_json(item, registry)
        assert not isinstance(info.value, NotUnitaryNormalized)

    def test_inconsistent_duals_rejected(self):
        doc = self.build_doc()
        doc["symbols"].append(
            {
                "id": "P1d",
                "degree": 2,
                "dual": "P1",
                "central_char": "~chi",
                "local": {"2": [[0.2, 0.0], [5.0, 0.0]]},  # not the inverse multiset
            }
        )
        with pytest.raises(ValueError):
            load_document(doc)

    def test_declared_dual_backfilled_at_missing_places(self):
        doc = self.build_doc()
        doc["symbols"].append(
            {
                "id": "P1d",
                "degree": 2,
                "dual": "P1",
                "central_char": "~chi",
                "local": {"2": [[0.6, -0.8], [0.6, 0.8]]},  # inverse at q=2 only
            }
        )
        registry, _ = load_document(doc)
        p1, p1d = registry.get("P1"), registry.get("P1d")
        assert 3 in local_params(p1d)  # filled from P1's data
        assert p1d.params[p1d.qs == 3].tobytes() == (1 / p1.params[p1.qs == 3]).tobytes()

    def test_duplicate_declaration_rejected(self):
        from gsp4transfer.isobaric import registry_from_json

        first = {"id": "A", "degree": 2, "dual": "Ad", "local": {"3": [[0.6, 0.8], [0.6, -0.8]]}}
        second = dict(first, local={"5": [[0.0, 1.0], [0.0, -1.0]]})
        with pytest.raises(ValueError, match="symbol id 'A' declared twice"):
            registry_from_json([first, second])

    def test_self_dual_document_checked(self):
        doc = {
            "symbols": [
                {
                    "id": "S",
                    "degree": 2,
                    "dual": "S",
                    "central_char": "1",
                    "local": {"2": [[2.0, 0.0], [3.0, 0.0]]},  # not inverse-closed
                }
            ],
        }
        from gsp4transfer.isobaric import registry_from_json

        with pytest.raises(ValueError):
            registry_from_json(doc["symbols"])

    def test_json_text_refused(self):
        # the caller decodes a file; text is a document that is not an object
        with pytest.raises(ValueError, match="^document must be a JSON object$"):
            load_document(json.dumps(self.build_doc()))

    def test_large_place_key_validates_fast(self):
        # trial division up to sqrt(q) would stall on this key for hours
        doc = self.build_doc()
        for sym in doc["symbols"]:
            sym["local"] = {"1000000000000000003": sym["local"]["2"]}
        start = time.perf_counter()
        registry, _ = load_document(doc)
        assert time.perf_counter() - start < 0.5
        assert 1000000000000000003 in local_params(registry.get("P1"))

    def test_large_place_tested_once_per_document(self, monkeypatch):
        # P1, P2 and their two materialized duals hold the same 200 places
        # above 10^18; Miller-Rabin runs once for each distinct one
        primes, q = [], 10**18 + 1
        while len(primes) < 200:
            primes += [q] * satake._is_prime(q)
            q += 2
        doc = self.build_doc()
        for sym in doc["symbols"]:
            sym["local"] = dict.fromkeys(map(str, primes), sym["local"]["2"])
        calls = []
        is_prime = satake._is_prime
        monkeypatch.setattr(satake, "_is_prime", lambda n: calls.append(n) or is_prime(n))
        satake._is_prime_power.cache_clear()
        registry, _ = load_document(doc)
        assert sorted(calls) == primes
        assert all(sym.qs.tolist() == primes for sym in registry) and len(list(registry)) == 4
