"""Inputs, operations and correctness oracles of the three workloads.

Every input is generated from the workload seed; the program sees only the
generated files and command-line arguments.  One *pass* is the workload's
fixed list of operations; a run repeats passes.  Each operation carries its
own oracle, which returns None when the outcome is right and a reason
otherwise.

- ``groups``: ``verify-groups`` at q=5 and q=7 (q=3 in smoke mode).  The
  group check has no random input, so the seed only stamps the result.
- ``poles``: ``poles --mode both`` on two-descriptor documents of cases 3b,
  3c and 3a-excluded, plus one complex-s ``partial_L`` and the cold
  weight-12 fixture, through the library.
- ``transfer``: a shuffled stream of ``transfer`` and ``rodier`` calls on
  valid, constraint-breaking, malformed and known-defect documents.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable

import numpy as np

from gsp4transfer import cli, lseries
from gsp4transfer.isobaric import SymbolRegistry, isobaric

# Known orders (kernel, image = gso, go) of the pair-map check.
GROUP_ORDERS = {3: (2, 1_152, 2_304), 5: (4, 57_600, 115_200), 7: (6, 677_376, 1_354_752)}

@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """One in-process call of ``gsp4transfer.cli.main`` with captured output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class Op:
    """One operation of a pass.

    ``run`` does the work and is the only timed part; ``check`` is the
    oracle.  ``cli`` marks operations counted in the per-operation latency
    metrics; ``places`` is the number of local places in the input.
    ``known_defect`` names an input that fails until a recorded defect is
    fixed.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    cli: bool = True
    places: int = 0
    known_defect: str | None = None
    score: Callable[[Any], float] | None = None  # a number read from a correct outcome


def clear_caches() -> None:
    """Empty the package's memo caches, as a fresh CLI process would find them."""
    for name, module in list(sys.modules.items()):
        if name == "gsp4transfer" or name.startswith("gsp4transfer."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _primes(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


PRIMES = _primes(100_000)


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def _log_uniform_sizes(n: int, lo: int, hi: int) -> list[int]:
    """The n quantile midpoints of the log-uniform distribution on [lo, hi].

    Sizes do not depend on the seed, so every seed gives a pass the same
    amount of work and run-to-run spread reflects the program, not the draw.
    """
    u = (np.arange(n) + 0.5) / n
    return [int(round(lo * (hi / lo) ** x)) for x in u]


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def check_groups(q: int, expected: tuple[int, int, int], res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit {res.code}, expected 0"
    payload = json.loads(res.out)
    kernel, image, go = expected
    got = (payload["kernel_size"], payload["image_size"], payload["gso_size"], payload["go_size"])
    if not payload["ok"]:
        return f"q={q}: report not ok"
    if got != (kernel, image, image, go):
        return f"q={q}: (kernel, image, gso, go) = {got}, expected {(kernel, image, image, go)}"
    return None


def groups_ops(rng, smoke: bool, workdir: str, orders=GROUP_ORDERS) -> list[Op]:
    qs = (3,) if smoke else (5, 7)
    return [
        Op(
            f"verify-groups.q{q}",
            partial(run_cli, ["verify-groups", "--q", str(q), "--format", "json"]),
            partial(check_groups, q, orders[q]),
        )
        for q in qs
    ]


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

POLE_ORDERS = {"3b": 2, "3c": 1, "3a-excluded": 0}


def _poles_doc(rng, case: str, mixed: bool) -> dict:
    """Two lifted descriptors whose pairing has the case's pole order.

    ``mixed`` pairs a self-dual with a non-self-dual constituent under the
    trivial character; otherwise all four symbols are non-self-dual with
    central character ``chi``.
    """
    tag = f"{rng.integers(1 << 30):x}"
    p1, p2, p3, p4 = (f"{name}_{tag}" for name in ("A", "B", "C", "D"))
    if mixed:
        symbols = [
            {"id": p1, "degree": 2, "dual": p1, "central_char": "1"},
            {"id": p2, "degree": 2, "dual": p2 + "d", "central_char": "1"},
            {"id": p3, "degree": 2, "dual": p3, "central_char": "1"},
            {"id": p4, "degree": 2, "dual": p4 + "d", "central_char": "1"},
        ]
        second = {"3b": [p1, p2 + "d"], "3c": [p1, p3], "3a-excluded": [p3, p4 + "d"]}[case]
        gross = ("1", "1")
    else:
        symbols = [
            {"id": s, "degree": 2, "dual": s + "d", "central_char": "chi"} for s in (p1, p2, p3, p4)
        ]
        second = {
            "3b": [p1 + "d", p2 + "d"],
            "3c": [p1 + "d", p3 + "d"],
            "3a-excluded": [p3 + "d", p4 + "d"],
        }[case]
        gross = ("chi", "~chi")
    return {
        "symbols": symbols,
        "descriptors": [
            {"from_gso": True, "terms": [p1, p2], "gross_char": gross[0]},
            {"from_gso": True, "terms": second, "gross_char": gross[1]},
        ],
    }


def check_poles(case: str, res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit {res.code}, expected 0: {res.err.strip()[:200]}"
    payload = json.loads(res.out)
    order = POLE_ORDERS[case]
    if payload["case"] != case or payload["symbolic_order"] != order:
        return f"case {payload['case']} order {payload['symbolic_order']}, expected {case} {order}"
    est = payload["estimate"]
    if est is None or not math.isfinite(est) or round(est) != order:
        return f"estimate {est} does not round to {order}"
    return None


def pole_error(res: CliResult) -> float:
    payload = json.loads(res.out)
    return abs(payload["estimate"] - payload["symbolic_order"])


def _sato_tate_reps(rng, X: int):
    """Two library-built isobaric sums with synthetic data at every prime <= X."""
    primes = lseries.primes_up_to(X)
    registry = SymbolRegistry()
    seeds = [int(s) for s in rng.integers(1 << 40, size=2)]
    a = lseries.sato_tate_symbol(registry, "A", seeds[0], primes)
    b = lseries.sato_tate_symbol(registry, "B", seeds[1], primes)
    data = [lseries.sample_sato_tate(s, primes) for s in seeds]
    return isobaric([a, b]), isobaric([b]), primes, data


def reference_partial_L(primes, data, s: complex) -> complex:
    """Independent oracle: the same product, built from the raw samples."""
    q = np.array(primes, dtype=float)
    a = np.array([[data[0][p][0], data[0][p][1], data[1][p][0], data[1][p][1]] for p in primes])
    b = np.array([[data[1][p][0], data[1][p][1]] for p in primes])
    z = (a[:, :, None] * b[:, None, :]).reshape(len(primes), -1) * q[:, None] ** (-s)
    return complex(np.exp(-np.log1p(-z).sum()))


def check_partial_L(expected: complex, value: complex) -> str | None:
    if not abs(value - expected) <= 1e-8 * abs(expected):
        return f"partial_L {value} differs from reference {expected}"
    return None


# Exact a_p of the weight-12 cusp form, independent of the fixture code.
DELTA_AP = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738}


def run_partial_L(r1, r2, X: int, s: complex) -> complex:
    """Looks ``partial_L`` up at call time, so a traced pass records it."""
    return lseries.partial_L(r1, r2, X, s)


def run_fixture(N: int) -> tuple[Any, float]:
    table = lseries.delta_eigenvalues(N)
    delta = lseries.eigen_symbol(SymbolRegistry(), "Delta", table)
    rep = isobaric([delta])
    est, _ = lseries.estimate_with_sweep(rep, rep, N)
    return table, est


def check_fixture(N: int, outcome) -> str | None:
    table, est = outcome
    by_p = {row.p: row.a_p for row in table.rows}
    if len(table.rows) != len(lseries.primes_up_to(N)):
        return f"fixture has {len(table.rows)} rows"
    if any(by_p[p] != ap for p, ap in DELTA_AP.items()):
        return "fixture a_p differ from the known values"
    if round(est) != 1:
        return f"fixture pole estimate {est} does not round to 1"
    return None


def poles_ops(rng, smoke: bool, workdir: str) -> list[Op]:
    X = 2_000 if smoke else 100_000
    ops = []
    for mixed in (False, True):
        for case in POLE_ORDERS:
            path = _write(workdir, f"poles-{case}-{int(mixed)}.json", _poles_doc(rng, case, mixed))
            argv = ["poles", "--in", path, "--mode", "both", "--X", str(X),
                    "--seed", str(int(rng.integers(1 << 31))), "--format", "json"]
            ops.append(Op("poles", partial(run_cli, argv), partial(check_poles, case),
                          score=pole_error))
    r1, r2, primes, data = _sato_tate_reps(rng, X)
    s = complex(1.5, float(rng.uniform(1.0, 10.0)))
    ops.append(Op(
        "partial_L",
        partial(run_partial_L, r1, r2, X, s),
        partial(check_partial_L, reference_partial_L(primes, data, s)),
        cli=False,
    ))
    N = 2_000 if smoke else 10_000
    ops.append(Op("fixture", partial(run_fixture, N), partial(check_fixture, N), cli=False))
    return ops


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def _unit(rng, n: int) -> np.ndarray:
    return np.exp(2j * math.pi * rng.random(n))


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def _lifted_doc(rng, n: int, self_dual: bool) -> tuple[dict, list[str]]:
    """A lifted descriptor over the first n primes with consistent local data.

    Both constituents share the central value at every place; self-dual
    ones carry inverse-closed unit-circle data under the trivial character.
    """
    tag = f"{rng.integers(1 << 30):x}"
    ids = [f"P_{tag}", f"Q_{tag}"]
    primes = PRIMES[:n]
    mu = np.ones(n, dtype=complex) if self_dual else _unit(rng, n)
    cc = "1" if self_dual else "chi"
    symbols = []
    for sid in ids:
        a = _unit(rng, n)
        b = mu / a
        local = {str(p): _pairs(pair) for p, pair in zip(primes, zip(a, b))}
        symbols.append({
            "id": sid, "degree": 2, "dual": sid if self_dual else sid + "d",
            "central_char": cc, "local": local,
        })
    doc = {
        "symbols": symbols,
        "isobaric": [{"term": ids[0], "r": "0"}, {"term": ids[1], "r": "0"}],
        "from_gso": True,
        "gross_char": cc,
    }
    return doc, ids


def check_transfer_ok(n: int, ids: list[str], fmt: str, res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit {res.code}, expected 0: {res.err.strip()[:200]}"
    if fmt == "json":
        payload = json.loads(res.out)
        if payload["violation"] is not None or payload["isobaric"] != ids:
            return f"violation {payload['violation']}, isobaric {payload['isobaric']}"
        if len(payload["places"]) != n or not all(e["commutes"] for e in payload["places"]):
            return "diagram does not commute at every place"
        return None
    if "consistency OK" not in res.out or res.out.count("diagram commutes") != n:
        return "text output does not report a commuting diagram at every place"
    return None


def check_exit(code: int, needle: str, res: CliResult) -> str | None:
    if res.code != code:
        return f"exit {res.code}, expected {code}"
    if needle not in res.out + res.err:
        return f"output does not name {needle!r}"
    return None


def _constraint_doc(rng, kind: str, n: int) -> dict:
    doc, ids = _lifted_doc(rng, n, self_dual=False)
    if kind == "distinct_constituents":
        doc["isobaric"][1]["term"] = ids[0]
    elif kind == "central_char_global":
        doc["symbols"][1]["central_char"] = "psi"
    elif kind == "central_char_local":
        p = str(PRIMES[int(rng.integers(n))])
        a, b = doc["symbols"][1]["local"][p]
        doc["symbols"][1]["local"][p] = [a, [2.0 * b[0], 2.0 * b[1]]]
    elif kind == "unitary_normalization":
        doc["isobaric"][0]["r"], doc["isobaric"][1]["r"] = "1/2", "-1/2"
    return doc


CONSTRAINTS = {
    "distinct_constituents": "distinct_constituents",
    "central_char_global": "central_char_compatibility",
    "central_char_local": "central_char_compatibility",
    "unitary_normalization": "unitary_normalization",
}


def _malformed_doc(rng, kind: str, n: int):
    """A document the CLI must reject with exit 2."""
    doc, ids = _lifted_doc(rng, n, self_dual=False)
    if kind == "bad_json":
        return json.dumps(doc)[: 40 + int(rng.integers(40))]
    if kind == "unknown_term":
        doc["isobaric"][1]["term"] = "ghost"
    elif kind == "missing_dual":
        del doc["symbols"][0]["dual"]
    elif kind == "zero_param":
        doc["symbols"][0]["local"][str(PRIMES[int(rng.integers(n))])][0] = [0.0, 0.0]
    elif kind == "three_terms":
        doc["isobaric"].append({"term": ids[0] + "d", "r": "0"})
    elif kind == "bad_degree":
        doc["symbols"][1]["degree"] = 3
    elif kind == "two_descriptors":
        desc = {"from_gso": True, "terms": ids, "gross_char": "chi"}
        del doc["isobaric"], doc["from_gso"], doc["gross_char"]
        doc["descriptors"] = [desc, desc]
    elif kind == "composite_place":
        doc["symbols"][0]["local"]["6"] = [[1.0, 0.0], [1.0, 0.0]]
    return doc


MALFORMED = ("bad_json", "unknown_term", "missing_dual", "zero_param",
             "three_terms", "bad_degree", "two_descriptors", "composite_place")


def _known_defect_docs() -> list[tuple[str, Any]]:
    """The crashers reproduced in ROADMAP item 4; each must exit 2."""
    doc, _ = _lifted_doc(np.random.default_rng(4), 8, self_dual=False)
    string_param = json.loads(json.dumps(doc))
    string_param["symbols"][0]["local"]["2"][0] = "1j"
    zero_div = json.loads(json.dumps(doc))
    zero_div["isobaric"][0]["r"] = "1/0"
    return [
        ("symbols_not_list", {"symbols": "x"}),
        ("top_level_array", [doc]),
        ("string_local_parameter", string_param),
        ("zero_denominator", zero_div),
    ]


RODIER_PATTERNS = {
    "B": ["-1/2", "-1/2", "1/2", "1/2"],
    "C": ["-3/2", "-1/2", "1/2", "3/2"],
}
PRIME_POWERS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 49, 81, 121, 125)


def _rodier_doc(rng, family: str) -> tuple[dict, int, str | None]:
    if family == "A":
        r = Fraction(int(rng.integers(0, 9)), 32)
        exps, want_r = [Fraction(-1, 2), -r, r, Fraction(1, 2)], str(r)
    elif family == "not_in_list":
        r = Fraction(int(rng.integers(9, 16)), 32)
        exps, want_r = [Fraction(-1, 2), -r, r, Fraction(1, 2)], None
    else:
        exps, want_r = [Fraction(e) for e in RODIER_PATTERNS[family]], None
    q = int(rng.choice(PRIME_POWERS))
    turns = [Fraction(int(rng.integers(12)), 12) for _ in exps]
    order = rng.permutation(4)
    entries, exact = [], []
    for i in order:
        v = q ** float(exps[i]) * complex(math.cos(2 * math.pi * turns[i]), math.sin(2 * math.pi * turns[i]))
        entries.append([v.real, v.imag])
        exact.append({"r": str(exps[i]), "turns": str(turns[i])})
    return {"kind": "gl4", "entries": entries, "exact": exact}, q, want_r


def check_rodier(family: str, want_r: str | None, fmt: str, res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit {res.code}, expected 0"
    if fmt == "json":
        verdict = json.loads(res.out)["verdict"]
        if verdict["family"] != family or verdict["r"] != want_r:
            return f"verdict {verdict}, expected {family} r={want_r}"
        return None
    want = {
        "A": f"verdict: family A with r = {want_r}",
        "B": "verdict: family B",
        "C": "verdict: family C",
        "not_in_list": "verdict: not in the exponent list",
    }[family]
    return None if want in res.out else f"text verdict is not {want!r}"


def transfer_ops(rng, smoke: bool, workdir: str) -> list[Op]:
    """One pass: valid lifts, rodier calls, constraint breaks, malformed and known-defect documents."""
    n_valid, n_each = (4, 1) if smoke else (80, 4)
    ops: list[Op] = []

    def add(kind, doc, argv_tail, check, places=0, known=None, fmt="text"):
        path = _write(workdir, f"t{len(ops):04d}.json", doc)
        cmd = "rodier" if kind == "rodier" else "transfer"
        argv = [cmd, "--params" if cmd == "rodier" else "--in", path, *argv_tail, "--format", fmt]
        ops.append(Op(kind, partial(run_cli, argv), check, places=places, known_defect=known))

    for i, n in enumerate(_log_uniform_sizes(n_valid, 8, 2_000)):
        fmt = "json" if i % 2 else "text"
        doc, ids = _lifted_doc(rng, n, self_dual=(i // 2) % 2 == 1)
        add("transfer", doc, [], partial(check_transfer_ok, n, ids, fmt), places=n, fmt=fmt)
    for family in ("A", "B", "C", "not_in_list"):
        for i in range(n_each + n_each // 2):
            fmt = "json" if i % 2 else "text"
            doc, q, want_r = _rodier_doc(rng, family)
            add("rodier", doc, ["--q", str(q)], partial(check_rodier, family, want_r, fmt), fmt=fmt)
    for kind, name in CONSTRAINTS.items():
        for i, n in enumerate(_log_uniform_sizes(n_each, 8, 200)):
            fmt = "json" if i % 2 else "text"
            add("transfer.constraint", _constraint_doc(rng, kind, n), [],
                partial(check_exit, 1, name), places=n, fmt=fmt)
    for kind in MALFORMED:
        for i, n in enumerate(_log_uniform_sizes(max(1, n_each // 2), 8, 40)):
            add("transfer.malformed", _malformed_doc(rng, kind, n), [],
                partial(check_exit, 2, "error"), fmt="json" if i % 2 else "text")
    for name, doc in _known_defect_docs():
        add("transfer.malformed", doc, [], partial(check_exit, 2, "error"), known=name)
    # exact forms that disagree with their floats: entries 5 at q=9 read as family B
    inconsistent = {
        "kind": "gl4",
        "entries": [[5.0, 0.0]] * 4,
        "exact": [{"r": r, "turns": "0"} for r in RODIER_PATTERNS["B"]],
    }
    add("rodier", inconsistent, ["--q", "9"], partial(check_exit, 2, "error"),
        known="inconsistent_exact_form")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = {"groups": groups_ops, "poles": poles_ops, "transfer": transfer_ops}
