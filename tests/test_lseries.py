import cmath
import math

import numpy as np
import pytest

from gsp4transfer.isobaric import InsufficientLocalData, SymbolRegistry, isobaric
from gsp4transfer.lseries import (
    DEFAULT_GRID,
    EulerProductSweep,
    LocalFactorInput,
    LocalPole,
    delta_eigenvalues,
    eigen_symbol,
    estimate_pole_order,
    estimate_with_sweep,
    local_rs_factor,
    partial_L,
    place,
    primes_up_to,
    ramanujan_tau,
    read_eigenvalue_csv,
    read_theta_csv,
    sample_sato_tate,
    sato_tate_symbol,
    write_eigenvalue_csv,
    write_sweep_csv,
    write_theta_csv,
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


class TestPrimes:
    def test_small(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_count_below_1e5(self):
        assert len(primes_up_to(100_000)) == 9592


class TestLocalFactor:
    def test_zeta_factor(self):
        inp = LocalFactorInput((1,), (1,), place(2))
        assert local_rs_factor(inp, 2) == pytest.approx(4.0 / 3.0)

    def test_multiplicative_in_second_slot(self):
        a = cmath.exp(0.7j)
        inp_union = LocalFactorInput((a, a.conjugate()), (1, -1), place(5))
        inp_1 = LocalFactorInput((a, a.conjugate()), (1,), place(5))
        inp_2 = LocalFactorInput((a, a.conjugate()), (-1,), place(5))
        lhs = local_rs_factor(inp_union, 1.7)
        rhs = local_rs_factor(inp_1, 1.7) * local_rs_factor(inp_2, 1.7)
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
        got = local_rs_factor(LocalFactorInput(sigma, tau, place(p)), s)
        assert got == pytest.approx(expected)

    def test_pole_detected(self):
        inp = LocalFactorInput((1,), (1,), place(2))
        with pytest.raises(LocalPole):
            local_rs_factor(inp, 0)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            LocalFactorInput((0,), (1,), place(2))


def trivial_rep(registry, sid="one", X=100):
    local = {place(p): (1 + 0j,) for p in primes_up_to(X)}
    return isobaric([registry.create(sid, 1, self_dual=True, local=local)])


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
        part1 = [place(p) for p in primes if p < 50]
        part2 = [place(p) for p in primes if p >= 50]
        whole = partial_L(rep, rep, 300, 1.8)
        split = partial_L(rep, rep, 300, 1.8, places=part1) * partial_L(
            rep, rep, 300, 1.8, places=part2
        )
        assert abs(whole - split) <= 1e-12 * abs(whole)

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
        tau = reg.create("tau", 2, local={
            place(p): (1j * a, 1j * b) for p, (a, b) in sample_sato_tate(22, primes).items()
        })
        r1, r2 = isobaric([sigma, tau]), isobaric([tau.dual()])
        expected = 1.0 + 0j
        for left in r1.constituents:
            for right in r2.constituents:
                for p in primes:
                    pl = place(p)
                    inp = LocalFactorInput(
                        tuple(c.value for c in left.local_params[pl]),
                        tuple(c.value for c in right.local_params[pl]),
                        pl,
                    )
                    expected *= local_rs_factor(inp, s)
        assert partial_L(r1, r2, 300, s) == pytest.approx(expected, rel=1e-10)

    def test_complex_s_path(self):
        reg = SymbolRegistry()
        rep = trivial_rep(reg)
        v = partial_L(rep, rep, 50, 2.0 + 0.5j)
        expected = 1.0
        for p in primes_up_to(50):
            expected /= 1 - p ** (-(2.0 + 0.5j))
        assert v == pytest.approx(expected)


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
        # E[2 cos theta] under the angle density, by Simpson quadrature
        density = lambda t: (2 / math.pi) * math.sin(t) ** 2
        expected = simpson(lambda t: 2 * math.cos(t) * density(t), 0.0, math.pi)
        assert abs(expected) < 1e-12
        primes = primes_up_to(104_729)  # 10^4 primes
        data = sample_sato_tate(20260808, primes)
        mean = sum((a + b).real for a, b in data.values()) / len(data)
        assert abs(mean - expected) < 0.05

    def test_cdf_normalization(self):
        density = lambda t: (2 / math.pi) * math.sin(t) ** 2
        assert simpson(density, 0.0, math.pi) == pytest.approx(1.0, abs=1e-10)

    def test_theta_csv_roundtrip(self, tmp_path):
        primes = primes_up_to(200)
        data = sample_sato_tate(8, primes)
        path = tmp_path / "theta.csv"
        write_theta_csv(path, data)
        again = read_theta_csv(path)
        assert set(again) == set(data)
        for p in data:
            assert again[p][0] == pytest.approx(data[p][0], abs=1e-12)


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
            estimate_pole_order(r_sigma, r_sigma, 2000, grid=[1.3, 1.2, 1.1])
        with pytest.raises(ValueError):
            estimate_pole_order(r_sigma, r_sigma, 2000, grid=[1.9, 1.5, 1.3, 1.2, 1.1])

    def test_sweep_payload(self):
        r_sigma, _, _ = self.setup_reps(5000)
        est, sweep = estimate_with_sweep(r_sigma, r_sigma, 5000)
        assert sweep.s_grid == DEFAULT_GRID
        assert len(sweep.values) == 5
        assert sweep.X == 5000

    def test_overflow_is_estimation_failure(self):
        from gsp4transfer.lseries import EstimationError

        reg = SymbolRegistry()
        local = {place(p): (1e200 + 0j,) for p in primes_up_to(2000)}
        rep = isobaric([reg.create("huge", 1, local=local)])
        with pytest.raises((EstimationError, LocalPole)):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                estimate_pole_order(rep, rep, 2000)


class TestDeltaEigenvalues:
    def test_matches_naive_expansion(self):
        oracle = naive_tau(30)
        for m in range(1, 31):
            assert ramanujan_tau(m) == oracle[m]

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

    def test_size_cap(self):
        with pytest.raises(ValueError):
            delta_eigenvalues(20_000)

    def test_csv_roundtrip(self, tmp_path):
        table = delta_eigenvalues(50)
        path = tmp_path / "ap.csv"
        write_eigenvalue_csv(path, table)
        again = read_eigenvalue_csv(path)
        assert again == table

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("prime,coeff\n2,-24\n")
        with pytest.raises(ValueError):
            read_eigenvalue_csv(path)

    def test_real_data_gives_simple_pole(self):
        table = delta_eigenvalues(10_000)
        reg = SymbolRegistry()
        sym = eigen_symbol(reg, "delta", table)
        rep = isobaric([sym])
        est = estimate_pole_order(rep, rep, 10_000)
        assert abs(est - 1) < 0.25
