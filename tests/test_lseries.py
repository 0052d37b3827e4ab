import cmath
import gc
import math
import sys
import warnings
import weakref

import numpy as np
import pytest

from gsp4transfer import lseries, satake
from gsp4transfer.isobaric import (
    CuspidalSymbol,
    InsufficientLocalData,
    SymbolRegistry,
    _dual_of,
    isobaric,
    load_document,
    rows_at,
    rs_factorization,
)
from gsp4transfer.lseries import (
    DEFAULT_GRID,
    EulerProductSweep,
    LocalPole,
    _discriminant_coeffs,
    _sato_tate_params,
    delta_eigenvalues,
    eigen_symbol,
    estimate_pole_order,
    estimate_with_sweep,
    partial_L,
    primes_up_to,
    sample_sato_tate,
    sato_tate_symbol,
    stream_seed,
    synthetic_reps,
    write_sweep_csv,
)


def simpson(f, a, b, n=2000):
    """Plain Simpson quadrature, used as an independent oracle."""
    xs = [a + (b - a) * i / n for i in range(n + 1)]
    total = f(xs[0]) + f(xs[-1])
    total += 4 * sum(f(x) for x in xs[1:-1:2])
    total += 2 * sum(f(x) for x in xs[2:-1:2])
    return (b - a) / (3 * n) * total


def naive_tau(n_max):
    """Independent oracle: multiply out x * prod (1 - x^m)^24 term by term."""
    coeffs = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        for _ in range(24):
            for i in range(n_max, m - 1, -1):
                coeffs[i] -= coeffs[i - m]
    return {k: coeffs[k - 1] for k in range(1, n_max + 1)}


def sparse_discriminant_coeffs(n):
    """Reference for ``_discriminant_coeffs``: the same eight products of the
    sparse triangular series sum_k (-1)^k (2k+1) x^{k(k+1)/2}, on Python ints."""
    sparse = []
    k = 0
    while k * (k + 1) // 2 < n:
        sparse.append(((-1) ** k * (2 * k + 1), k * (k + 1) // 2))
        k += 1
    cur = [0] * n
    cur[0] = 1
    for _ in range(8):
        new = [0] * n
        for coef, e in sparse:
            for i in range(n - e):
                new[i + e] += coef * cur[i]
        cur = new
    return tuple(cur)


def row_discriminant_residues(n):
    """Reference for ``lseries._discriminant_residues``: the same products of
    the sparse series on one (2, n) row of residues per modulus."""
    sparse = []
    k = 0
    while k * (k + 1) // 2 < n:
        sparse.append(((-1) ** k * (2 * k + 1), k * (k + 1) // 2))
        k += 1
    coefs, exps = np.array(sparse, dtype=np.int64).T
    exponent = np.add.outer(exps, exps)
    kept = exponent < n
    square = np.zeros(n, dtype=np.int64)
    np.add.at(square, exponent[kept], np.multiply.outer(coefs, coefs)[kept])
    moduli = np.array(lseries._TAU_MODULI, dtype=np.int64)[:, None]
    cur = np.remainder(square, moduli)
    for _ in range(6):
        new = np.zeros_like(cur)
        for coef, e in sparse:
            new[:, e:] += cur[:, : n - e] * coef
        cur = np.remainder(new, moduli)
    return cur


class TestPrimes:
    def test_small(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_count_below_1e5(self):
        assert len(primes_up_to(100_000)) == 9592

    def test_matches_a_list_sieve(self):
        n = 3000
        is_prime = [False, False] + [True] * (n - 1)
        for p in range(2, n + 1):
            if is_prime[p]:
                for m in range(p * p, n + 1, p):
                    is_prime[m] = False
        reference = [p for p in range(n + 1) if is_prime[p]]
        for x in range(-3, n + 1):
            assert primes_up_to(x) == [p for p in reference if p <= x], x

    def test_bound_refused_before_sieving(self):
        with pytest.raises(ValueError, match="above the largest supported bound"):
            primes_up_to(lseries.MAX_X + 1)

    @pytest.mark.parametrize("x", [0, 1, 2, 3, 100, 1023, 1024, 100_000, 131_071, 131_072])
    def test_prime_array_is_a_read_only_sieve(self, x):
        primes = lseries._prime_array(x)
        assert primes.dtype == np.int64
        assert primes.tolist() == np.flatnonzero(satake.prime_sieve(x + 1)).tolist()
        assert lseries._prime_array(x) is primes  # memoised
        with pytest.raises(ValueError, match="read-only"):
            primes[:1] = 4
        with pytest.raises(ValueError, match="above the largest supported bound"):
            lseries._prime_array(lseries.MAX_X + 1)

    def test_one_sieve_per_bit_length(self, monkeypatch):
        """The primes and the place check of a symbol built on them read one
        table per bit length; 131 071 is prime, so the primes up to 2^17
        are checked in the table of 2^17 that the primes up to 10^5 built."""
        descriptors = load_document(SYNTHETIC_DOC)[1]
        sieve, sizes = satake.prime_sieve, []
        monkeypatch.setattr(satake, "prime_sieve", lambda n: sizes.append(n) or sieve(n))
        lseries._prime_array.cache_clear()
        satake.place_table.cache_clear()
        for x in (1000, 1023, 1024, 100_000, 131_071, 131_072):
            primes = lseries._prime_array(x)
            CuspidalSymbol("S", 1, "S", "1", primes, np.ones((len(primes), 1), dtype=complex))
        synthetic_reps(descriptors, 0, 100_000)
        assert sizes == [2**10, 2**11, 2**17, 2**18]


def local_rs_factor(sigma, tau, q, s):
    """Reference local factor: the product over all parameter pairs of
    (1 - a_i b_j q^-s)^-1, one pair at a time."""
    qs = complex(q) ** (-complex(s))
    out = 1.0 + 0.0j
    for a in sigma:
        for b in tau:
            z = a * b * qs
            if abs(1.0 - z) < 1e-12:
                raise LocalPole(f"local factor pole at q={q}, s={s}")
            out /= 1.0 - z
    return out


class TestLocalFactor:
    def test_zeta_factor(self):
        assert local_rs_factor((1,), (1,), 2, 2) == pytest.approx(4.0 / 3.0)

    def test_multiplicative_in_second_slot(self):
        sigma = (cmath.exp(0.7j), cmath.exp(-0.7j))
        lhs = local_rs_factor(sigma, (1, -1), 5, 1.7)
        rhs = local_rs_factor(sigma, (1,), 5, 1.7) * local_rs_factor(sigma, (-1,), 5, 1.7)
        assert lhs == pytest.approx(rhs)

    def test_matches_bruteforce_four_term_product(self):
        a = cmath.exp(1.1j)
        sigma = (a, a.conjugate())
        tau = (a.conjugate(), a)  # the dual parameters
        p, s = 7, 2.0
        expected = 1.0
        for x in sigma:
            for y in tau:
                expected /= 1 - x * y * p ** (-s)
        got = local_rs_factor(sigma, tau, p, s)
        assert got == pytest.approx(expected)

    def test_pole_detected(self):
        with pytest.raises(LocalPole):
            local_rs_factor((1,), (1,), 2, 0)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError, match="parameter is zero"):
            SymbolRegistry().create("zero", 1, qs=[2], params=[(0,)])


def trivial_rep(registry, sid="one", X=100):
    primes = primes_up_to(X)
    return isobaric([registry.create(sid, 1, self_dual=True, qs=primes, params=[(1 + 0j,)] * len(primes))])


class TestPartialL:
    def test_trivial_square_matches_direct_product(self):
        reg = SymbolRegistry()
        rep = trivial_rep(reg)
        got = partial_L(rep, rep, 100, 2.0)
        expected = 1.0
        for p in primes_up_to(100):
            expected /= 1 - p ** (-2.0)
        assert got == pytest.approx(expected, rel=1e-12)
        # the truncation approaches zeta(2) from below
        assert abs(got - math.pi**2 / 6) < 5e-3

    def test_empty_place_set_is_one(self):
        reg = SymbolRegistry()
        rep = trivial_rep(reg)
        assert partial_L(rep, rep, 1, 2.0) == 1.0
        assert partial_L(rep, rep, 1, 0.5 + 1j) == 1.0

    def test_isobaric_factorization_identity(self):
        primes = primes_up_to(200)
        reg = SymbolRegistry()
        sigma = sato_tate_symbol(reg, "sigma", 5, primes)
        tau = sato_tate_symbol(reg, "tau", 6, primes)
        rho = sato_tate_symbol(reg, "rho", 7, primes)
        for s in (1.5, 2.0, 3.0):
            lhs = partial_L(isobaric([sigma, tau]), isobaric([rho]), 200, s)
            rhs = partial_L(isobaric([sigma]), isobaric([rho]), 200, s) * partial_L(
                isobaric([tau]), isobaric([rho]), 200, s
            )
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_multiplicative_over_disjoint_place_sets(self):
        primes = primes_up_to(300)
        reg = SymbolRegistry()
        sigma = sato_tate_symbol(reg, "sigma", 11, primes)
        rep = isobaric([sigma])
        qs = lseries._prime_array(300)
        whole = partial_L(rep, rep, 300, 1.8)
        split = (lseries._sweep_values(rep, rep, part, [1.8])[0] for part in (qs[qs < 50], qs[qs >= 50]))
        assert abs(whole - math.prod(split)) <= 1e-12 * abs(whole)

    def test_conjugation_symmetry(self):
        primes = primes_up_to(500)
        reg = SymbolRegistry()
        sigma = sato_tate_symbol(reg, "sigma", 13, primes)
        tau = sato_tate_symbol(reg, "tau", 14, primes)
        for s in DEFAULT_GRID:
            v = partial_L(isobaric([sigma]), isobaric([tau]), 500, s)
            assert abs(v.imag) <= 1e-9 * abs(v)

    def test_missing_data_raises(self):
        reg = SymbolRegistry()
        small = trivial_rep(reg, "small", X=10)
        with pytest.raises(InsufficientLocalData):
            partial_L(small, small, 100, 2.0)

    @pytest.mark.parametrize("s", [1.4, 1.2 + 3.5j])
    def test_matches_local_factor_oracle(self, s):
        primes = primes_up_to(300)
        reg = SymbolRegistry()
        sigma = sato_tate_symbol(reg, "sigma", 21, primes)
        # not self-dual, so the pairing also runs over a materialized dual
        tau_data = sample_sato_tate(22, primes)
        tau = reg.create("tau", 2, qs=list(tau_data), params=[(1j * a, 1j * b) for a, b in tau_data.values()])
        r1, r2 = isobaric([sigma, tau]), isobaric([tau.dual()])
        expected = 1.0 + 0j
        for left in r1.constituents:
            for right in r2.constituents:
                sigma_at, tau_at = (dict(zip(sym.qs.tolist(), sym.params.tolist())) for sym in (left, right))
                for p in primes:
                    expected *= local_rs_factor(sigma_at[p], tau_at[p], p, s)
        assert partial_L(r1, r2, 300, s) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("s", [1.4, 0.3 + 2j])
    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_root_pairs_per_factor_match_local_factor_oracle(self, degree, s):
        """One factor of k = degree^2 root pairs: 1, 4 and 16."""
        primes = primes_up_to(300)
        rng = np.random.default_rng(degree)
        reg = SymbolRegistry()
        left, right = (reg.create(sid, degree, qs=primes, params=np.exp(2j * np.pi * rng.random((len(primes), degree))))
                       for sid in ("A", "B"))
        expected = 1.0 + 0j
        for p, a, b in zip(primes, left.params.tolist(), right.params.tolist()):
            expected *= local_rs_factor(a, b, p, s)
        assert partial_L(isobaric([left]), isobaric([right]), 300, s) == pytest.approx(expected, rel=1e-10, abs=0)

    def test_complex_s_path(self):
        reg = SymbolRegistry()
        rep = trivial_rep(reg)
        v = partial_L(rep, rep, 50, 2.0 + 0.5j)
        expected = 1.0
        for p in primes_up_to(50):
            expected /= 1 - p ** (-(2.0 + 0.5j))
        assert v == pytest.approx(expected)


def log_sum_oracle(left, right, qs, s):
    """-log of the partial product of a one-term pairing: the sum of
    log(1 - a_i b_j q^-s) over every place and root pair."""
    q = np.asarray(qs, dtype=float)
    z = (left.params[:, :, None] * right.params[:, None, :]).reshape(len(q), -1) * q[:, None] ** (-s)
    return complex(np.log(1 - z).sum())


class TestPartialLRange:
    """At X = 10^6 and Re s <= 1/2 the partial product can leave the float
    range.  It is inf where log|L| > log(max float) and 0 where log|L| is
    below the log of the least subnormal, as a sum of logs gives it, and
    never NaN."""

    X = 10**6

    @pytest.fixture(scope="class")
    def pairings(self):
        primes = primes_up_to(self.X)
        reg = SymbolRegistry()
        one = reg.create("one", 1, self_dual=True, qs=primes, params=np.ones((len(primes), 1)))
        sigma = sato_tate_symbol(reg, "sigma", 5, primes)
        big = np.concatenate([_sato_tate_params(6, len(primes)), 1j * _sato_tate_params(7, len(primes))], axis=1)
        Sigma = reg.create("Sigma", 4, qs=primes, params=big)
        # k = 1, 4 and 16 root pairs; the trivial pairing's phase is exactly real
        return {1: (one, one), 4: (sigma, sigma), 16: (Sigma, Sigma.dual())}

    # s = -0.5 gives 0, where 1 / prod(1 - z) would overflow its product to NaN;
    # at s = -4, |z| = q^4 passes 2^64 and a 16-pair product would overflow
    @pytest.mark.parametrize("s", [0.5, 0.5 + 3j, 0.3, 0.1, 0.1 + 1j, -0.5, -0.5 + 2j, -4.0])
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_matches_log_sum_oracle(self, pairings, k, s):
        left, right = pairings[k]
        total = log_sum_oracle(left, right, left.qs, s)
        with np.errstate(over="ignore"):
            v = partial_L(isobaric([left]), isobaric([right]), self.X, s)
        assert not (math.isnan(v.real) or math.isnan(v.imag)), v
        if -total.real > math.log(sys.float_info.max):
            assert abs(v) == math.inf
        elif -total.real < math.log(5e-324):
            assert v == 0
        else:
            assert v == pytest.approx(cmath.exp(-total), rel=1e-10, abs=0)

    def test_overflowing_place_product_beside_near_poles(self):
        """A place whose product of the 1 - z would leave the float range,
        next to near-poles: at q = 2 that product passes 2^1056, and at q = 3
        it is near 2^-585, so the value is finite while the product at q = 2
        is not."""
        theta = np.linspace(0.1, 2.0, 4)
        eps = 1e-11 * np.exp(3j * theta)
        reg = SymbolRegistry()
        left = reg.create("L", 4, qs=[2, 3], params=[2.0**33 * np.exp(1j * theta), np.ones(4)])
        right = reg.create("R", 4, qs=[2, 3], params=[2.0**33 * np.exp(-2j * theta), 1 - eps])
        v = partial_L(isobaric([left]), isobaric([right]), 3, 0.0)
        expected = cmath.exp(-log_sum_oracle(left, right, [2, 3], 0.0))
        assert 0 < abs(expected) < 1e-100
        assert v == pytest.approx(expected, rel=1e-10, abs=0)


def ulp_steps(x, k=3):
    """x and its k float neighbours on each side."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


# z on and next to the edge of the disc |1 - z| < 1e-12, along both axes;
# fl(1 - 1e-12) itself is inside, since 1 - fl(1 - 1e-12) < 1e-12
POLE_EDGE = ([complex(x) for x in ulp_steps(1.0 - 1e-12) + ulp_steps(1.0 + 1e-12)]
             + [complex(1.0, y) for y in ulp_steps(1e-12) + ulp_steps(-1e-12)]
             + [complex(1.0 - 0.7e-12, 0.7e-12), complex(1.0 - 0.8e-12, 0.8e-12)])


class TestPoleEdge:
    """``partial_L`` raises ``LocalPole`` exactly when |1 - z| < 1e-12 for
    the z it computes, also one float step either side of the disc's edge."""

    @pytest.mark.parametrize("s", [0.0, 0.5 + 1.0j])
    def test_pole_check_unchanged_at_the_edge(self, s):
        # q^-s at q = 2 as the sweep computes it; at s = 0 it is exactly 1
        w = np.exp(-np.multiply.outer(np.array([s], dtype=complex), np.log([2.0])))[0]
        outcomes = set()
        for target in POLE_EDGE:
            a = target if s == 0 else target / complex(w[0])
            z = np.array([a]) * np.array([1 + 0j]) * w
            expected = bool(abs(1.0 - z[0]) < 1e-12)
            outcomes.add(expected)
            reg = SymbolRegistry()
            rep = isobaric([reg.create("A", 1, qs=[2], params=[(a,)])])
            if expected:
                with pytest.raises(LocalPole):
                    partial_L(rep, trivial_rep(reg, X=2), 2, s)
            else:
                partial_L(rep, trivial_rep(reg, X=2), 2, s)
        assert outcomes == {True, False}


class TestBlockedSweep:
    """Blocks of a few hundred places on a window of X = 2 10^4 (2237
    places above 100, eight blocks of 300) against one block of them all."""

    X = 20_000
    BLOCK = 300

    @pytest.fixture
    def window(self):
        primes = np.array(primes_up_to(self.X), dtype=np.int64)
        return primes[primes > 100]

    def sweep(self, monkeypatch, block, r1, r2, qs, s_values):
        monkeypatch.setattr(lseries, "SWEEP_BLOCK", block)
        return lseries._sweep_values(r1, r2, qs, s_values)

    @pytest.mark.parametrize("s_values", [DEFAULT_GRID, [0.5 + 3j, 1.5 - 2j]])
    def test_blocks_equal_one_block(self, monkeypatch, window, s_values):
        primes = primes_up_to(self.X)
        reg = SymbolRegistry()
        sigma = sato_tate_symbol(reg, "sigma", 3, primes)
        tau = sato_tate_symbol(reg, "tau", 4, primes)
        big = reg.create("Big", 4, qs=primes, params=np.concatenate(
            [_sato_tate_params(5, len(primes)), 1j * _sato_tate_params(6, len(primes))], axis=1))
        for r1, r2 in ((isobaric([sigma, tau]), isobaric([sigma, tau])),
                       (isobaric([big]), isobaric([sigma, tau])),
                       (isobaric([big]), isobaric([big.dual()]))):
            blocked = self.sweep(monkeypatch, self.BLOCK, r1, r2, window, s_values)
            whole = self.sweep(monkeypatch, len(window), r1, r2, window, s_values)
            assert np.all(np.abs(blocked / whole - 1) <= 1e-13), (blocked, whole)

    def test_pole_only_in_a_later_block(self, monkeypatch, window):
        # a = q^1.3 at one place of the sixth block makes z = 1 there at s = 1.3;
        # the other parameter, 10^-3 everywhere, keeps the smallest |a| far from it
        at = 5 * self.BLOCK + 17
        params = np.tile(np.array([1, 1e-3], dtype=complex), (len(window), 1))
        params[at, 0] = float(window[at]) ** 1.3
        reg = SymbolRegistry()
        rep = isobaric([reg.create("A", 2, qs=window, params=params)])
        one = isobaric([reg.create("one", 1, self_dual=True, qs=window, params=np.ones((len(window), 1)))])
        for block in (self.BLOCK, len(window)):
            with pytest.raises(LocalPole, match=r"s=\(1\.3\+0j\)"):
                self.sweep(monkeypatch, block, rep, one, window, [1.4, 1.3, 1.2])
        # the blocks before and after it are still swept
        assert abs(self.sweep(monkeypatch, self.BLOCK, rep, one, window, [1.4])[0]) > 0
        before = window[: 5 * self.BLOCK].astype(float)
        zeta = math.exp(-(np.log1p(-before**-1.3) + np.log1p(-1e-3 * before**-1.3)).sum())
        assert self.sweep(monkeypatch, self.BLOCK, rep, one, before, [1.3])[0] == pytest.approx(zeta, rel=1e-12)

    def test_overflow_fallback_inside_one_block(self, monkeypatch, window):
        """A place whose product of the 1 - z would leave the float range,
        next to a near-pole, inside one block: at s = 0 and 5e-13 i that
        product passes 2^1056 at one place of the fourth block, and a
        near-pole at the next place of that block takes the value back into
        range; elsewhere |z| = 10^-6."""
        theta = np.linspace(0.1, 2.0, 4)
        eps = 1e-11 * np.exp(3j * theta)
        left = np.full((len(window), 4), 1e-3, dtype=complex)
        right = left.copy()
        at = 3 * self.BLOCK + 100
        left[at], right[at] = 2.0**33 * np.exp(1j * theta), 2.0**33 * np.exp(-2j * theta)
        left[at + 1], right[at + 1] = 1, 1 - eps
        assert np.log(np.abs(1 - np.multiply.outer(left[at], right[at]))).sum() > 1056 * math.log(2)
        reg = SymbolRegistry()
        sl, sr = reg.create("L", 4, qs=window, params=left), reg.create("R", 4, qs=window, params=right)
        s_values = [0.0, 5e-13j]
        expected = [cmath.exp(-log_sum_oracle(sl, sr, window, s)) for s in s_values]
        assert all(0 < abs(e) < 1e-100 for e in expected)
        assert abs(expected[1] / expected[0] - 1) > 0.1
        for block in (self.BLOCK, len(window)):
            got = self.sweep(monkeypatch, block, isobaric([sl]), isobaric([sr]), window, s_values)
            assert got.tolist() == pytest.approx(expected, rel=1e-10, abs=0)


def series_logs(s, params, split, lead, logq, bound):
    """``lseries._series_logs`` with a fresh work array of the size it takes."""
    order = lseries._series_order(split * (len(params) - split), float(bound.max()))
    work = np.empty(lseries._block_bytes(len(params), params.shape[1], order, s), dtype=np.uint8)
    return lseries._series_logs(s, params, split, lead, logq, bound, work)


def concatenated_sweep(r1, r2, qs, s_values):
    """Reference for ``lseries._sweep_values``: each block staged in fresh
    arrays, every symbol's rows copied to a C-order (parameter, place)
    array and the sides' rows joined by ``np.concatenate``, then split and
    summed by the library's ``_series_logs`` and ``_product_logs``."""
    s = np.asarray(s_values, dtype=complex)
    factors = rs_factorization(r1, r2)
    symbols = {id(sym): sym for pair in factors for sym in pair}
    sides = [[id(sym) for sym in rep.constituents] for rep in (r1, r2)]
    rows = {key: rows_at(sym, qs) for key, sym in symbols.items()}
    total = np.zeros(len(s), dtype=complex)
    for start in range(0, len(qs), lseries.SWEEP_BLOCK):
        block = slice(start, start + lseries.SWEEP_BLOCK)
        local = {}
        for key, sym in symbols.items():
            index = rows[key]
            local[key] = np.ascontiguousarray((sym.params[index][block] if isinstance(index, slice)
                                               else sym.params[index[block]]).T)
        logq = np.log(qs[block].astype(float))
        params = np.concatenate([local[key] for side in sides for key in side])
        split = sum(len(local[key]) for key in sides[0])
        moduli = np.abs(params)
        lead = (moduli[:split].max(axis=0), moduli[split:].max(axis=0))
        bound = lead[0] * lead[1] * np.exp(-s.real.min() * logq)
        far = bound <= lseries._SERIES_CUT
        if far.all():
            total += series_logs(s, params, split, lead, logq, bound)
            continue
        near = ~far
        part = lseries._product_logs(s, factors, {key: x[:, near] for key, x in local.items()}, logq[near])
        if far.any():
            part += series_logs(s, params[:, far], split, (lead[0][far], lead[1][far]), logq[far], bound[far])
        total += part
    return np.exp(-total)


class TestStagedSweep:
    """Each block's parameters written once into one work array give every
    bit of the concatenated staging, over blocks of 300 places and of 2048,
    on the window above 100 at the default grid (power sums only) and on
    every prime up to 2 10^4 at complex s (the first block split between the
    two sums), on consecutive places (rows read as slices) and on every
    third prime (rows gathered)."""

    X = 20_000

    @pytest.fixture(scope="class")
    def pairings(self):
        primes = primes_up_to(self.X)
        reg = SymbolRegistry()
        sigma = sato_tate_symbol(reg, "sigma", 3, primes)
        tau = sato_tate_symbol(reg, "tau", 4, primes)
        big = reg.create("Big", 4, qs=primes, params=np.concatenate(
            [_sato_tate_params(5, len(primes)), 1j * _sato_tate_params(6, len(primes))], axis=1))
        chi = synthetic_reps(load_document(CHI_DOC)[1], 9, self.X)
        return {
            "sum-sum": (isobaric([sigma, tau]), isobaric([tau, sigma])),
            "big-sum": (isobaric([big]), isobaric([sigma, tau])),
            "chi": tuple(chi),
        }

    @pytest.mark.parametrize("block", [300, lseries.SWEEP_BLOCK])
    @pytest.mark.parametrize("places", ["window", "every-third"])
    @pytest.mark.parametrize("s_values", [DEFAULT_GRID, (1.5 + 7.25j,), (0.75 - 2j, 2 + 3j)],
                             ids=["grid", "complex", "two-complex"])
    def test_same_bits_as_concatenated_staging(self, monkeypatch, pairings, block, places, s_values):
        monkeypatch.setattr(lseries, "SWEEP_BLOCK", block)
        qs = lseries._prime_array(self.X)
        if s_values == DEFAULT_GRID:
            qs = qs[qs > 100]
        if places == "every-third":
            qs = qs[::3]
        for name, (r1, r2) in pairings.items():
            want = concatenated_sweep(r1, r2, qs, s_values)
            got = lseries._sweep_values(r1, r2, qs, s_values)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name

    def test_both_sums_run_in_the_first_complex_block(self, monkeypatch):
        """The complex-s cases above split their first block: at Re s = 0.75
        the primes below 102 take one log1p per root pair."""
        seen, product = [], lseries._product_logs

        def spy(s, factors, local, logq):
            seen.append(len(logq))
            return product(s, factors, local, logq)

        monkeypatch.setattr(lseries, "_product_logs", spy)
        r1, r2 = synthetic_reps(load_document(CHI_DOC)[1], 9, self.X)
        lseries._sweep_values(r1, r2, lseries._prime_array(self.X), [0.75 - 2j, 2 + 3j])
        assert seen == [26]


class TestSweep:
    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            EulerProductSweep((1.1, 1.2), (1 + 0j, 1 + 0j), 100)

    def test_grid_must_stay_above_one(self):
        with pytest.raises(ValueError):
            EulerProductSweep((1.2, 1.0), (1 + 0j, 1 + 0j), 100)

    def test_csv_roundtrip(self, tmp_path):
        sweep = EulerProductSweep((1.3, 1.2), (2 + 1j, 3 - 0.5j), 100)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "s,re,im"
        assert len(rows) == 3


class TestSatoTate:
    def test_determinism(self):
        primes = primes_up_to(1000)
        first = sample_sato_tate(99, primes)
        second = sample_sato_tate(99, primes)
        assert first == second
        assert sample_sato_tate(100, primes) != first

    def test_unit_circle_and_inverse_pairs(self):
        data = sample_sato_tate(3, primes_up_to(2000))
        for a, b in data.values():
            assert abs(abs(a) - 1) < 1e-12
            assert abs(a * b - 1) < 1e-12

    def test_first_moment_matches_quadrature(self):
        # E[(2 cos theta)^k] under the angle density, by Simpson quadrature: 0 for
        # odd k, the Catalan number C_{k/2} for even k.  The bound is five standard
        # errors, 5 sqrt(Var / n) with Var = C_k - E^2, which is 0.05 at k = 1.
        density = lambda t: (2 / math.pi) * math.sin(t) ** 2
        catalan = [1, 1, 2, 5, 14, 42, 132]
        primes = primes_up_to(104_729)  # 10^4 primes
        data = sample_sato_tate(20260808, primes)
        traces = np.array([(a + b).real for a, b in data.values()])
        for k in range(1, 7):
            expected = simpson(lambda t: (2 * math.cos(t)) ** k * density(t), 0.0, math.pi)
            exact = catalan[k // 2] if k % 2 == 0 else 0
            assert abs(expected - exact) < 1e-10, k
            bound = 5 * math.sqrt((catalan[k] - exact**2) / len(traces))
            assert abs(float((traces**k).mean()) - expected) < bound, k

    def test_cdf_normalization(self):
        density = lambda t: (2 / math.pi) * math.sin(t) ** 2
        assert simpson(density, 0.0, math.pi) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 9592])
    def test_stream_definition(self, n):
        # c = sqrt(u0) cos(2 pi u1) on row k = draws 2k, 2k + 1; a = c + i sqrt(1 - c^2)
        for seed in (0, 1, 20260808):
            u = np.random.Generator(np.random.PCG64(seed)).random((n, 2))
            c = np.sqrt(u[:, 0]) * np.cos(2 * math.pi * u[:, 1])
            a = c + 1j * np.sqrt((1 - c) * (1 + c))
            want = np.stack([a, a.conj()], axis=1)
            assert _sato_tate_params(seed, n).view(np.uint64).tolist() == want.view(np.uint64).tolist(), seed

    def test_prefix_does_not_depend_on_length(self):
        full = _sato_tate_params(17, 9592).view(np.uint64)
        for m in (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 100, 1229, 9591):
            assert _sato_tate_params(17, m).view(np.uint64).tolist() == full[:m].tolist(), m

    def test_kolmogorov_smirnov_against_exact_cdf(self):
        # the 1% critical value of the one-sample KS distance is 1.63 / sqrt(n)
        n = 100_000
        theta = np.sort(np.angle(_sato_tate_params(20260808, n)[:, 0]))
        assert theta[0] >= 0.0 and theta[-1] <= math.pi
        cdf = (theta - np.sin(theta) * np.cos(theta)) / math.pi
        ranks = np.arange(1, n + 1) / n
        distance = max((ranks - cdf).max(), (cdf - (ranks - 1 / n)).max())
        assert distance < 1.63 / math.sqrt(n)


def registry_reps(descriptors, seed, X):
    """Oracle: the synthetic reps through a shadow ``SymbolRegistry``, where
    each dual pair of ids is registered from the stream of the smaller id,
    its dual materialized as ``SymbolRegistry.create`` does."""
    primes = primes_up_to(X)
    shadow = SymbolRegistry()
    for desc in descriptors:
        for sym in desc.pair:
            base = sym if sym.id <= sym.dual_id else sym.dual()
            if base.id in shadow:
                continue
            params = _sato_tate_params(stream_seed(seed, base.id + ":angles"), len(primes))
            if not sym.is_self_dual:
                rng = np.random.Generator(np.random.PCG64(stream_seed(seed, base.id + ":twist")))
                params = np.exp(2j * math.pi * rng.random(len(primes)))[:, None] * params
            made = CuspidalSymbol(base.id, 2, base.dual_id, base.central_char_id, primes, params)
            dual = _dual_of(made)
            shadow._insert(*((made,) if dual is made else (made, dual)))
    return [isobaric([shadow.get(s.id) for s in desc.pair]) for desc in descriptors]


# a self-dual S next to a pair B, Bd; the second descriptor uses the larger id
SYNTHETIC_DOC = {
    "symbols": [
        {"id": "S", "degree": 2, "dual": "S", "local": {"2": [[0.6, 0.8], [0.6, -0.8]]}},
        {"id": "B", "degree": 2, "dual": "Bd", "local": {"2": [[0.8, 0.6], [0.8, -0.6]]}},
    ],
    "descriptors": [
        {"from_gso": True, "terms": ["S", "B"], "gross_char": "1"},
        {"from_gso": True, "terms": ["S", "Bd"], "gross_char": "1"},
    ],
}


class TestSyntheticReps:
    def test_same_bits_as_registry_construction(self):
        descriptors = load_document(SYNTHETIC_DOC)[1]
        for seed in (0, 7):
            got, want = synthetic_reps(descriptors, seed, 2000), registry_reps(descriptors, seed, 2000)
            for g, w in zip(got, want):
                for a, b in zip(g.constituents, w.constituents):
                    assert (a.id, a.dual_id) == (b.id, b.dual_id)
                    assert np.array_equal(a.qs, b.qs)
                    assert np.array_equal(a.params.view(np.uint64), b.params.view(np.uint64))

    def test_twist_times_angles_in_that_operand_order(self):
        """The twisted stream is e^(2 pi i v) times the angle stream, the
        twist the left operand, compared as bits: numpy's complex multiply
        may fuse, and with the operands swapped it differs in the last bit
        on machines where it does."""
        X, seed = 20_000, 3
        reps = synthetic_reps(load_document(CHI_DOC)[1], seed, X)
        n = len(lseries._prime_array(X))
        for sym in reps[0].constituents:  # A and B, which own the streams of their duals
            angles = _sato_tate_params(stream_seed(seed, sym.id + ":angles"), n)
            v = np.random.Generator(np.random.PCG64(stream_seed(seed, sym.id + ":twist"))).random(n)
            want = np.exp(2j * math.pi * v)[:, None] * angles
            assert np.array_equal(sym.params.view(np.uint64), want.view(np.uint64)), sym.id

    def test_symbols_share_the_sieved_primes(self):
        reps = synthetic_reps(load_document(SYNTHETIC_DOC)[1], 0, 2000)
        primes = lseries._prime_array(2000)
        assert primes.flags.owndata and not primes.flags.writeable
        assert all(sym.qs is primes for rep in reps for sym in rep.constituents)

    def test_freed_without_garbage_collection(self):
        descriptors = load_document(SYNTHETIC_DOC)[1]
        gc.disable()
        try:
            reps = synthetic_reps(descriptors, 0, 2000)
            refs = [weakref.ref(sym) for rep in reps for sym in rep.constituents]
            del reps
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert len(refs) == 4 and alive == 0

    def test_places_below_the_table_cap_skip_miller_rabin(self, monkeypatch):
        calls = []
        is_prime_power = satake._is_prime_power
        monkeypatch.setattr(satake, "_is_prime_power", lambda n: calls.append(n) or is_prime_power(n))
        descriptors = load_document(SYNTHETIC_DOC)[1]
        satake.place_table.cache_clear()
        reps = synthetic_reps(descriptors, 0, 100_000)
        assert len(reps[0].constituents[0].qs) == 9592
        assert calls == []
        # a place at or above the cap still goes through the scalar check
        CuspidalSymbol("big", 1, "big", "1", [2, satake.PRIME_POWER_TABLE_CAP, 10**18 + 3], [1, 1, 1])
        assert calls == [satake.PRIME_POWER_TABLE_CAP, 10**18 + 3]


def fsum_log_oracle(r1, r2, qs, s):
    """The sum of log(1 - z) over the places ``qs`` and every factor's root
    pairs, z = a_i b_j q^-s: one ``np.log1p`` per term, the real and
    imaginary parts each added by ``math.fsum``."""
    qs = np.asarray(qs, dtype=np.int64)
    logq = np.log(qs.astype(float))
    re, im = [], []
    for sigma, tau in rs_factorization(r1, r2):
        a = sigma.params[np.searchsorted(sigma.qs, qs)]
        b = tau.params[np.searchsorted(tau.qs, qs)]
        x = np.exp(-complex(s) * logq)
        terms = np.log1p(-(a[:, :, None] * b[:, None, :]).reshape(len(qs), -1) * x[:, None]).ravel()
        re += terms.real.tolist()
        im += terms.imag.tolist()
    return complex(math.fsum(re), math.fsum(im))


# two non-self-dual symbols under a character chi, paired with their duals as in case 3b
CHI_DOC = {
    "symbols": [{"id": sid, "degree": 2, "dual": sid + "d", "central_char": "chi"} for sid in "AB"],
    "descriptors": [
        {"from_gso": True, "terms": ["A", "B"], "gross_char": "chi"},
        {"from_gso": True, "terms": ["Ad", "Bd"], "gross_char": "~chi"},
    ],
}


class TestSeriesSweep:
    """The sweep against ``fsum_log_oracle``.  A place whose bound on every
    |z| is at most 1/32 is summed by power sums, any other by one log1p per
    root pair (``_product_logs``); each test says which places take which,
    and the error it allows."""

    @pytest.fixture
    def paths(self, monkeypatch):
        """How many places each summation receives."""
        seen = {"product": 0, "series": 0}
        product, series = lseries._product_logs, lseries._series_logs

        def spy_product(s, factors, local, logq):
            seen["product"] += len(logq)
            return product(s, factors, local, logq)

        def spy_series(s, params, split, lead, logq, bound, work):
            seen["series"] += len(logq)
            return series(s, params, split, lead, logq, bound, work)

        monkeypatch.setattr(lseries, "_product_logs", spy_product)
        monkeypatch.setattr(lseries, "_series_logs", spy_series)
        return seen

    @pytest.mark.parametrize("doc, X", [
        pytest.param(CHI_DOC, 100_000, id="chi"),
        pytest.param(SYNTHETIC_DOC, 100_000, id="self-dual"),
        *(pytest.param(doc, X, id=f"{name}-X{X}")
          for X in (101, 1000) for doc, name in ((CHI_DOC, "chi"), (SYNTHETIC_DOC, "self-dual"))),
    ])
    def test_benchmark_window_takes_power_sums_only(self, paths, doc, X):
        """The places in (100, X] at the default grid, as ``poles --X X``
        sweeps them: every bound is at most 101^-1.03 < 1/32, so ``poles``
        never takes the log1p path.  The rounding bound of ``_series_logs``
        adds up to about 6e-14 over the window at X = 10^5, and the sums over
        places add about as much again; log|L| and the phase are held to
        5e-13."""
        r1, r2 = synthetic_reps(load_document(doc)[1], 11, X)
        primes = lseries._prime_array(X)
        window = primes[primes > 100]
        values = lseries._sweep_values(r1, r2, window, DEFAULT_GRID)
        assert paths == {"product": 0, "series": len(window)}
        for s, v in zip(DEFAULT_GRID, values):
            total = fsum_log_oracle(r1, r2, window, s)
            assert abs(math.log(abs(v)) + total.real) <= 5e-13
            assert abs(v / cmath.exp(-total) - 1) <= 5e-13

    def test_near_and_far_places_in_one_block(self, paths):
        """The 430 primes up to 3000, one block, at s = 1.2 and 1.03: the
        bound q^-1.03 passes 1/32 at the nine primes below 29, which take one
        log1p per root pair, and the other 421 take power sums.  A log1p adds
        about an ulp per root pair; the value is held to 1e-12 relative."""
        X = 3000
        r1, r2 = synthetic_reps(load_document(CHI_DOC)[1], 5, X)
        qs = lseries._prime_array(X)
        values = lseries._sweep_values(r1, r2, qs, [1.2, 1.03])
        assert paths == {"product": 9, "series": 421}
        for s, v in zip([1.2, 1.03], values):
            assert abs(v / cmath.exp(-fsum_log_oracle(r1, r2, qs, s)) - 1) <= 1e-12

    @pytest.mark.parametrize("s", [1.5 + 3.3j, 0.75 - 20j])
    def test_complex_s(self, paths, s):
        """Complex s over the primes up to 2 10^4, three blocks, q^-s a
        complex exp; at Re s = 0.75 the 26 primes below 102 take one log1p
        per root pair.  The value is held to 1e-12 relative."""
        X = 20_000
        r1, r2 = synthetic_reps(load_document(CHI_DOC)[1], 6, X)
        v = partial_L(r1, r2, X, s)
        assert abs(v / cmath.exp(-fsum_log_oracle(r1, r2, lseries._prime_array(X), s)) - 1) <= 1e-12
        assert paths["series"] > 0 and paths["product"] == (26 if s.real < 1 else 4)

    def test_sixteen_pairs_just_under_the_cut(self, paths):
        """A degree-4 symbol against its dual, 16 root pairs, on the 53
        primes in (100, 400) at the real s that puts the bound at q = 101
        about 3.5e-9 under 1/32: every place takes power sums, to order 12,
        the most any block needs.  Per place the tail is at most
        2^-60 and the rounding at most about (3 12 + 16) 2^-53 16 (1/32) /
        (31/32), 3e-15; over the 53 places that is below 2e-13."""
        qs = np.array([p for p in primes_up_to(400) if p > 100], dtype=np.int64)
        reg = SymbolRegistry()
        big = reg.create("Big", 4, qs=qs, params=np.concatenate(
            [_sato_tate_params(8, len(qs)), 1j * _sato_tate_params(9, len(qs))], axis=1))
        s = math.log(32) / math.log(101) * (1 + 1e-9)
        assert lseries._series_order(16, float(np.exp(-s * math.log(101)))) == 12
        r1, r2 = isobaric([big]), isobaric([big.dual()])
        value = lseries._sweep_values(r1, r2, qs, [s])[0]
        assert paths == {"product": 0, "series": len(qs)}
        total = fsum_log_oracle(r1, r2, qs, s)
        assert abs(math.log(abs(value)) + total.real) <= 2e-13
        assert abs(value / cmath.exp(-total) - 1) <= 2e-13

    @pytest.mark.parametrize("pairs", [1, 4, 16, 64])
    def test_orders_cover_every_place(self, pairs):
        """A block is summed to the least order M whose tail
        pairs beta^(M+1) / ((M+1)(1 - beta)) is at most 2^-60 at its largest
        bound beta; that order covers each place at its own bound."""
        def tail(order, beta):
            return pairs * beta ** (order + 1) / ((order + 1) * (1 - beta))

        bound = lseries._SERIES_CUT * np.exp(-np.random.default_rng(pairs).uniform(0, 40, 500))
        for largest in (bound.max(), lseries._SERIES_CUT):
            bound[7] = largest
            order = lseries._series_order(pairs, float(bound.max()))
            assert all(tail(order, beta) <= 2.0**-60 for beta in bound)
            assert tail(order - 1, bound.max()) > 2.0**-60
        assert lseries._series_order(16, lseries._SERIES_CUT) == 12
        assert lseries._series_order(16, 101 ** -1.03) == 8
        assert lseries._series_order(16, 0.0) == 0


def table_series_logs(s, params, split, lead, logq, bound):
    """Reference for ``lseries._series_logs``: the same sums, from one
    (order, parameter, place) table of the powers u^m, every multiply and
    sum in the same operand order."""
    order = lseries._series_order(split * (len(params) - split), float(bound.max()))
    u = params.copy(order="K")  # scaled in the layout it comes in
    u[:split] *= (1 / lead[0]).astype(complex)
    u[split:] *= (1 / lead[1]).astype(complex)
    real = not s.imag.any()
    y = np.exp(-np.multiply.outer(s.real if real else s, logq))
    y *= lead[0] * lead[1]
    powers = np.empty((order,) + u.shape, dtype=complex)
    ypow = np.empty((order,) + y.shape, dtype=y.dtype)
    powers[0], ypow[0] = u, y
    for k in range(1, order):
        np.multiply(powers[k - 1], u, out=powers[k])
        np.multiply(ypow[k - 1], y, out=ypow[k])
    c = powers[:, :split].sum(axis=1)
    c *= powers[:, split:].sum(axis=1)
    c *= (1 / np.arange(1, order + 1))[:, None]
    if real:
        sums = (ypow @ c.view(float).reshape(c.shape + (2,))).sum(axis=0)
        return -(sums[:, 0] + 1j * sums[:, 1])
    return -(ypow @ c[:, :, None]).sum(axis=(0, 2))


class TestStreamedSeries:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("places", [1, 2, 7, 300])
    @pytest.mark.parametrize("s", [DEFAULT_GRID, (0.9 + 2.5j,), (1.5,)], ids=["grid", "complex", "one-real"])
    def test_same_bits_as_the_table_of_powers(self, places, s, order):
        """4 + 4 parameters, 16 root pairs, at bounds from 1e-4 up to just
        under 1/32, so the sums run to order 12: ``_series_logs`` gives
        every bit of the table form, on the real-y path of the default grid
        and of one real s, and at one complex s.  One place is the case
        where numpy's in-place complex multiply of a single element rounds
        apart; F order is the layout that ``params[:, far]`` gathers in."""
        rng = np.random.default_rng(places)
        params = np.exp(2j * np.pi * rng.random((8, places))) * rng.uniform(0.5, 2.0, (8, places))
        params = np.asarray(params, order=order)
        moduli = np.abs(params)
        lead = (moduli[:4].max(axis=0), moduli[4:].max(axis=0))
        s = np.asarray(s, dtype=complex)
        beta = np.geomspace(lseries._SERIES_CUT * (1 - 1e-9), 1e-4, places)
        logq = (np.log(lead[0] * lead[1]) - np.log(beta)) / s.real.min()
        bound = lead[0] * lead[1] * np.exp(-s.real.min() * logq)
        assert bound.max() <= lseries._SERIES_CUT
        assert lseries._series_order(16, float(bound.max())) == 12
        want = table_series_logs(s, params, 4, lead, logq, bound)
        got = series_logs(s, params.copy(order="K"), 4, lead, logq, bound)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPoleEstimates:
    def setup_reps(self, X, seed=101):
        primes = primes_up_to(X)
        reg = SymbolRegistry()
        sigma = sato_tate_symbol(reg, "sigma", seed, primes)
        tau = sato_tate_symbol(reg, "tau", seed + 1, primes)
        return isobaric([sigma]), isobaric([tau]), isobaric([sigma, tau])

    def test_simple_pole(self):
        r_sigma, _, _ = self.setup_reps(20_000)
        est = estimate_pole_order(r_sigma, r_sigma, 20_000)
        assert abs(est - 1) < 0.25

    def test_double_pole(self):
        _, _, r_sum = self.setup_reps(20_000)
        est = estimate_pole_order(r_sum, r_sum, 20_000)
        assert abs(est - 2) < 0.35

    def test_no_pole(self):
        r_sigma, r_tau, _ = self.setup_reps(20_000)
        est = estimate_pole_order(r_sigma, r_tau, 20_000)
        assert abs(est) < 0.25

    def test_stability_under_doubling(self):
        r_sigma, r_tau, r_sum = self.setup_reps(40_000, seed=7)
        for r1, r2, tol in (
            (r_sigma, r_sigma, 0.25),
            (r_sum, r_sum, 0.35),
            (r_sigma, r_tau, 0.25),
        ):
            e1 = estimate_pole_order(r1, r2, 20_000)
            e2 = estimate_pole_order(r1, r2, 40_000)
            assert abs(e1 - e2) < tol

    def test_rounding_agrees_with_symbolic_over_random_configs(self):
        """Fifty randomized configurations per trichotomy case: the rounded
        numeric estimate must equal the exact symbolic order."""
        from gsp4transfer.isobaric import pole_order_at_one

        X = 20_000
        primes = primes_up_to(X)
        rng = np.random.Generator(np.random.PCG64(424242))
        for trial in range(50):
            reg = SymbolRegistry()
            seeds = [int(rng.integers(2**62)) for _ in range(3)]
            a = sato_tate_symbol(reg, "a", seeds[0], primes)
            b = sato_tate_symbol(reg, "b", seeds[1], primes)
            c = sato_tate_symbol(reg, "c", seeds[2], primes)
            configs = [
                (isobaric([a, b]), isobaric([a, b])),   # double pole
                (isobaric([a, b]), isobaric([a, c])),   # simple pole
                (isobaric([a]), isobaric([c])),         # no pole
            ]
            for r1, r2 in configs:
                symbolic = pole_order_at_one(r1, r2).order
                est = estimate_pole_order(r1, r2, X)
                assert round(est) == symbolic, (trial, symbolic, est)

    def test_grid_validation(self):
        r_sigma, _, _ = self.setup_reps(2000)
        with pytest.raises(ValueError):
            estimate_with_sweep(r_sigma, r_sigma, 2000, grid=[1.3, 1.2, 1.1])
        with pytest.raises(ValueError):
            estimate_with_sweep(r_sigma, r_sigma, 2000, grid=[1.9, 1.5, 1.3, 1.2, 1.1])
        with pytest.raises(ValueError, match=r"^grid must lie in \(1, 1\.5\]$"):
            estimate_with_sweep(r_sigma, r_sigma, 2000, grid=[1.5, 1.3, math.nan, 1.2, 1.1])

    def test_sweep_payload(self):
        r_sigma, _, _ = self.setup_reps(5000)
        est, sweep = estimate_with_sweep(r_sigma, r_sigma, 5000)
        assert sweep.s_grid == DEFAULT_GRID
        assert len(sweep.values) == 5
        assert sweep.X == 5000

    @pytest.mark.parametrize("min_place", [0, 100, 101, 4993])
    def test_window_is_the_places_above_min_place(self, min_place):
        r_sigma, r_tau, _ = self.setup_reps(5000)
        window = np.array([p for p in primes_up_to(5000) if p > min_place], dtype=np.int64)
        want = lseries._sweep_values(r_sigma, r_tau, window, DEFAULT_GRID)
        _, sweep = estimate_with_sweep(r_sigma, r_tau, 5000, min_place=min_place)
        assert np.array(sweep.values).view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_empty_window_refused(self):
        r_sigma, _, _ = self.setup_reps(5000)
        with pytest.raises(ValueError, match="no places in window"):
            estimate_with_sweep(r_sigma, r_sigma, 5000, min_place=4999)

    def test_overflow_is_estimation_failure(self):
        from gsp4transfer.lseries import EstimationError

        reg = SymbolRegistry()
        primes = primes_up_to(2000)
        rep = isobaric([reg.create("huge", 1, qs=primes, params=[(1e200 + 0j,)] * len(primes))])
        with pytest.raises((EstimationError, LocalPole)):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                estimate_pole_order(rep, rep, 2000)


class TestDeltaEigenvalues:
    def test_matches_naive_expansion(self):
        oracle = naive_tau(30)
        coeffs = _discriminant_coeffs(30, np.arange(30))
        for m in range(1, 31):
            assert coeffs[m - 1] == oracle[m]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_short_series_match_naive_expansion(self, n):
        # the square of the triangular series is cut at x^(n - 1) like every product
        oracle = naive_tau(n)
        assert _discriminant_coeffs(n, np.arange(n)) == tuple(oracle[m] for m in range(1, n + 1))

    def test_frozen_prime_values(self):
        table = delta_eigenvalues(100)
        by_p = {row.p: row for row in table.rows}
        assert by_p[2].a_p == -24
        assert by_p[3].a_p == 252
        assert by_p[5].a_p == 4830

    def test_normalized_parameters_on_unit_circle(self):
        table = delta_eigenvalues(2000)
        for row in table.rows:
            assert abs(abs(row.alpha) - 1) <= 1e-9
            assert abs(row.alpha * row.beta - 1) <= 1e-9
            t = row.a_p / row.p ** 5.5
            assert abs((row.alpha + row.beta).real - t) <= 1e-9
            assert abs(row.a_p) <= 2 * row.p**5.5

    def test_a_p_beyond_deligne_bound_raises(self, monkeypatch):
        # a_2 = 91 > 2 * 2^5.5 (about 90.5) has no unit-circle pair; refused before any square root
        coeffs = lseries._discriminant_coeffs
        monkeypatch.setattr(lseries, "_discriminant_coeffs", lambda n, at: (91, *coeffs(n, at)[1:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=r"^a_p beyond Deligne's bound 2 p\^\(11/2\) at p=2$"):
                delta_eigenvalues(100)

    def test_matches_sparse_oracle_at_full_size(self):
        assert _discriminant_coeffs(10_000, np.arange(10_000)) == sparse_discriminant_coeffs(10_000)

    def test_moduli_cover_the_largest_accepted_n(self):
        # n = 2^15 - 1: the unreduced sums fit int64 and the lift range holds |tau| <= 2 n^6
        n = 2**15 - 1
        K = sum(1 for k in range(n) if k * (k + 1) // 2 < n)
        assert K == 256
        assert K**2 * (max(lseries._TAU_MODULI) - 1) < 2**63
        assert 2 * n**6 < math.prod(lseries._TAU_MODULI) // 2
        assert math.gcd(*lseries._TAU_MODULI) == 1  # so the Chinese remainder lift exists

    def test_column_residues_match_the_row_form(self):
        n = 2**15 - 1
        residues = lseries._discriminant_residues(n)
        assert residues.shape == (2, n) and residues.dtype == np.int64 and not residues.flags.writeable
        assert np.array_equal(residues, row_discriminant_residues(n))

    def test_lift_range_enforced(self):
        # 2 n^6 < M / 2 fails first at n = 2^15; past it the lift could wrap
        with pytest.raises(OverflowError, match="lift range"):
            _discriminant_coeffs(2**15, np.arange(2**15))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            delta_eigenvalues(20_000)

    def test_real_data_gives_simple_pole(self):
        table = delta_eigenvalues(10_000)
        reg = SymbolRegistry()
        sym = eigen_symbol(reg, "delta", table)
        rep = isobaric([sym])
        est = estimate_pole_order(rep, rep, 10_000)
        assert abs(est - 1) < 0.25
