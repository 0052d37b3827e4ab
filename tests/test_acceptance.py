"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s); the module
also runs standalone via ``python3 tests/test_acceptance.py``.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from gsp4transfer.isobaric import (
    GSp4Descriptor,
    SymbolRegistry,
    associate_match,
    equivalent,
    isobaric,
    jiang_case_analysis,
    pole_order_at_one,
)
from gsp4transfer.lseries import (
    delta_eigenvalues,
    estimate_pole_order,
    primes_up_to,
    sato_tate_symbol,
)
from gsp4transfer.satake import (
    ExponentVector,
    GL2Param,
    UnramChar,
    check_selfdual_twist,
    gsp4_to_gl4_embed,
    match_multisets,
    rodier_class,
    theta_lift_params,
    transfer_gsp4_to_gl4,
)
from gsp4transfer.simgroups import verify_gso_presentation


def _report(criterion, description, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def _random_exact(rng, q=7):
    r = Fraction(rng.randrange(-8, 9), rng.randrange(1, 7))
    turns = Fraction(rng.randrange(-24, 25), rng.randrange(1, 13))
    return UnramChar.from_exact(r, turns, q)


def _random_complex(rng):
    mag = math.exp(rng.uniform(-2.0, 2.0))
    return mag * cmath.exp(2j * math.pi * rng.random())


def test_criterion_1_group_structure_desk_scale():
    t0 = time.monotonic()
    report3 = verify_gso_presentation(3)
    elapsed3 = time.monotonic() - t0
    ok3 = (
        report3.kernel_size == 2
        and report3.kernel_is_scalar_pairs
        and report3.image_size == 1152
        and report3.image_equals_gso
        and elapsed3 < 60
    )
    t0 = time.monotonic()
    report5 = verify_gso_presentation(5)
    elapsed5 = time.monotonic() - t0
    ok5 = (
        report5.kernel_size == 4
        and report5.image_size == 57600
        and report5.image_equals_gso
        and elapsed5 < 600
    )
    _report(
        1,
        f"pair-map image equals det=lambda^2 set exactly "
        f"(q=3: {report3.image_size} in {elapsed3:.1f}s, "
        f"q=5: {report5.image_size} in {elapsed5:.1f}s)",
        ok3 and ok5,
    )


def test_criterion_2_transfer_invariants():
    rng = random.Random(20260808)
    ok = True
    for _ in range(1000):
        if rng.random() < 0.5:
            c0, c1, c2 = (_random_exact(rng) for _ in range(3))
            out = transfer_gsp4_to_gl4(c0, c1, c2)
            square = (c0 * c0).exact
            ok &= out.product().exact == square  # exact mode: exact equality
        else:
            c0, c1, c2 = (_random_complex(rng) for _ in range(3))
            out = transfer_gsp4_to_gl4(c0, c1, c2)
            prod = out.product().value
            ok &= abs(prod - c0 * c0) <= 1e-12 * max(1.0, abs(c0 * c0))
        ok &= check_selfdual_twist(out, c0)
        if not ok:
            break
    _report(2, "1000 random transfers: entry product = c0^2 and self-dual twist", ok)


def test_criterion_3_commuting_diagram():
    rng = random.Random(424242)
    ok = True
    for _ in range(1000):
        alpha1, beta1, alpha2 = (_random_exact(rng) for _ in range(3))
        mu = alpha1 * beta1
        p1 = GL2Param.make(alpha1, beta1)
        p2 = GL2Param.make(alpha2, mu / alpha2)
        left = gsp4_to_gl4_embed(theta_lift_params(p1, p2))
        right = transfer_gsp4_to_gl4(mu, alpha1, alpha2)
        ok &= match_multisets(left.entries, right.entries)  # exact path
        if not ok:
            break
    _report(3, "1000 lifts: embed after lift equals direct transfer exactly", ok)


def test_criterion_4_trichotomy_exhaustive():
    orders = set()
    ok = True
    for sd1 in (False, True):
        for sd2 in (False, True):
            for choice1 in ("dual1", "dual2", "fresh"):
                for choice2 in ("dual1", "dual2", "fresh"):
                    reg = SymbolRegistry()
                    p11 = reg.create("p11", 2, self_dual=sd1)
                    p12 = reg.create("p12", 2, self_dual=sd2)
                    pick = {
                        "dual1": p11.dual,
                        "dual2": p12.dual,
                    }
                    p21 = reg.create("f1", 2) if choice1 == "fresh" else pick[choice1]()
                    p22 = reg.create("f2", 2) if choice2 == "fresh" else pick[choice2]()
                    if equivalent(p21, p22):
                        continue
                    d1 = GSp4Descriptor(True, "1", pair=(p11, p12), gross_char_id="1")
                    d2 = GSp4Descriptor(True, "1", pair=(p21, p22), gross_char_id="1")
                    order = jiang_case_analysis(d1, d2).report.order
                    orders.add(order)
                    ok &= order <= 2
                    # a double pole happens exactly for contragredient transfers
                    from gsp4transfer.isobaric import dual, reps_equivalent, transfer

                    ok &= (order == 2) == reps_equivalent(
                        transfer(d2), dual(transfer(d1))
                    )
    ok &= orders == {0, 1, 2}
    _report(4, f"exhaustive identification patterns give orders {sorted(orders)}", ok)


def test_criterion_5_numeric_symbolic_agreement():
    X = 100_000
    primes = primes_up_to(X)
    reg = SymbolRegistry()
    sigma = sato_tate_symbol(reg, "sigma", 1_000_003, primes)
    tau = sato_tate_symbol(reg, "tau", 2_000_003, primes)
    r_sigma, r_tau, r_sum = isobaric([sigma]), isobaric([tau]), isobaric([sigma, tau])
    cases = [
        (r_sigma, r_sigma, 1, 0.25),
        (r_sum, r_sum, 2, 0.35),
        (r_sigma, r_tau, 0, 0.25),
    ]
    ok = True
    details = []
    for r1, r2, order, tol in cases:
        t0 = time.monotonic()
        est = estimate_pole_order(r1, r2, X)
        elapsed = time.monotonic() - t0
        symbolic = pole_order_at_one(r1, r2).order
        ok &= symbolic == order and abs(est - order) < tol and elapsed < 120
        details.append(f"{order}->{est:.3f}({elapsed:.0f}s)")
    _report(5, "estimates at X=1e5 within 0.25/0.35/0.25: " + ", ".join(details), ok)


def test_criterion_6_rodier_predicate():
    half = Fraction(1, 2)
    ok = rodier_class(ExponentVector((-half, -half, half, half))).family == "B"
    ok &= (
        rodier_class(
            ExponentVector((-Fraction(3, 2), -half, half, Fraction(3, 2)))
        ).family
        == "C"
    )
    for r in (Fraction(0), Fraction(1, 8), Fraction(1, 4)):
        verdict = rodier_class(ExponentVector(tuple(sorted((-half, -r, r, half)))))
        ok &= verdict.family == "A" and verdict.r == r
    ok &= not rodier_class(ExponentVector((-0.5, -0.3, 0.3, 0.5))).in_list
    rng = random.Random(606060)
    agreements = 0
    for _ in range(1000):
        kind = rng.randrange(4)
        if kind == 0:
            r = Fraction(rng.randrange(0, 9), 32)
            exact = tuple(sorted((-half, -r, r, half)))
        elif kind == 1:
            exact = (-half, -half, half, half)
        elif kind == 2:
            exact = (-Fraction(3, 2), -half, half, Fraction(3, 2))
        else:
            exact = tuple(sorted(Fraction(rng.randrange(-8, 9), 4) for _ in range(4)))
        ve = rodier_class(ExponentVector(exact))
        vf = rodier_class(ExponentVector(tuple(float(x) for x in exact)), tol=1e-9)
        agreements += ve.family == vf.family
    ok &= agreements == 1000
    _report(6, "printed families accepted, r=0.3 rejected, exact/float agree 1000/1000", ok)


def test_criterion_7_eigenvalue_fixture():
    # independent oracle: expand x * prod (1 - x^m)^24 directly
    n_max = 6
    coeffs = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        for _ in range(24):
            for i in range(n_max, m - 1, -1):
                coeffs[i] -= coeffs[i - m]
    oracle = {k: coeffs[k - 1] for k in (2, 3, 5)}
    assert oracle == {2: -24, 3: 252, 5: 4830}
    table = delta_eigenvalues(2000)
    by_p = {row.p: row.a_p for row in table.rows}
    ok = by_p[2] == oracle[2] == -24
    ok &= by_p[3] == oracle[3] == 252
    ok &= by_p[5] == oracle[5] == 4830
    circle = all(abs(abs(row.alpha) - 1) <= 1e-9 for row in table.rows)
    ok &= circle
    _report(7, "a_2=-24, a_3=252, a_5=4830 vs direct expansion; parameters unimodular", ok)


def test_criterion_8_association_matching():
    rng = random.Random(818181)
    sample = primes_up_to(80)[:20]
    assert len(sample) == 20
    ok = True
    for trial in range(20):
        def fresh_data():
            out = []
            for _ in sample:
                t = rng.uniform(0.05, 3.1)
                out.append((cmath.exp(1j * t), cmath.exp(-1j * t)))
            return out

        n = rng.randrange(2, 6)
        datasets = [fresh_data() for _ in range(n)]
        reg1, reg2 = SymbolRegistry(), SymbolRegistry()
        list1 = [reg1.create(f"s{i}", 2, qs=sample, params=datasets[i]) for i in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        list2 = [reg2.create(f"t{j}", 2, qs=sample, params=datasets[perm[j]]) for j in range(n)]
        phi = associate_match(list1, list2, sample)
        ok &= phi == tuple(perm)
        # corrupt one place of one constituent: verdict must flip
        k = rng.randrange(n)
        corrupted_data = list(datasets[perm[k]])
        corrupted_data[rng.randrange(len(sample))] = (2.0 + 0j, 0.25 + 0j)
        reg3 = SymbolRegistry()
        list3 = []
        for j in range(n):
            data = corrupted_data if j == k else datasets[perm[j]]
            list3.append(reg3.create(f"u{j}", 2, qs=sample, params=data))
        ok &= associate_match(list1, list3, sample) is None
        if not ok:
            break
    _report(8, "20 random lists: permutation recovered, corruption flips verdict", ok)


def _main():
    tests = [
        test_criterion_1_group_structure_desk_scale,
        test_criterion_2_transfer_invariants,
        test_criterion_3_commuting_diagram,
        test_criterion_4_trichotomy_exhaustive,
        test_criterion_5_numeric_symbolic_agreement,
        test_criterion_6_rodier_predicate,
        test_criterion_7_eigenvalue_fixture,
        test_criterion_8_association_matching,
    ]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(exc)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(_main())
