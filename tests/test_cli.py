import copy
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsp4transfer import cli
from gsp4transfer.cli import main
from gsp4transfer.isobaric import load_document, transfer, transfer_conditions, transfer_places
from gsp4transfer.lseries import estimate_with_sweep, synthetic_reps, write_sweep_csv
from gsp4transfer.satake import (
    PRIME_POWER_LIMIT,
    CentralCharMismatch,
    GL2Param,
    gsp4_to_gl4_embed,
    match_multisets,
    param_to_json,
    theta_lift_params,
    transfer_gsp4_to_gl4,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def lifted_pair_doc(dual_second=False):
    """One descriptor (flat form) or two (for poles) built from unit-circle data."""
    symbols = [
        {
            "id": "P1",
            "degree": 2,
            "dual": "P1d",
            "central_char": "chi",
            "local": {"2": [[0.6, 0.8], [0.6, -0.8]], "5": [[0, 1], [0, -1]]},
        },
        {
            "id": "P2",
            "degree": 2,
            "dual": "P2d",
            "central_char": "chi",
            "local": {"2": [[1, 0], [1, 0]], "5": [[0.8, 0.6], [0.8, -0.6]]},
        },
    ]
    doc = {"symbols": symbols}
    if dual_second:
        doc["descriptors"] = [
            {"from_gso": True, "terms": ["P1", "P2"], "gross_char": "chi"},
            {"from_gso": True, "terms": ["P1d", "P2d"], "gross_char": "~chi"},
        ]
    else:
        doc["isobaric"] = [{"term": "P1", "r": "0"}, {"term": "P2", "r": "0"}]
        doc["from_gso"] = True
        doc["gross_char"] = "chi"
    return doc


def _chain_at_place(q, row1, row2) -> dict:
    """Reference oracle: the parameter chain at one place through the scalar
    ``satake`` route, as the payload entry of ``transfer``; ``row1`` and
    ``row2`` are (alpha, beta) of the two constituents at q."""
    (a1, b1), (a2, b2) = row1, row2
    g1 = GL2Param.make(a1, b1)
    g2 = GL2Param.make(a2, b2)
    lifted = theta_lift_params(g1, g2)
    embedded = gsp4_to_gl4_embed(lifted)
    direct = transfer_gsp4_to_gl4(lifted.mu, g1.alpha, g2.alpha)
    commutes = match_multisets(embedded.entries, direct.entries)
    return {
        "q": q,
        "gl2": [param_to_json(g1), param_to_json(g2)],
        "gsp4": param_to_json(lifted),
        "gl4": param_to_json(embedded),
        "commutes": bool(commutes),
    }


def oracle_transfer(doc) -> tuple[int, dict | None, str]:
    """Exit code, payload (None on an input error) and stderr of ``transfer``
    on a valid lifted document, place by place through ``_chain_at_place``."""
    desc = load_document(doc)[1][0]
    payload = {
        "from_gso": desc.from_gso,
        "isobaric": [sym.id for sym in transfer(desc).constituents],
        "conditions": list(transfer_conditions(desc)),
        "places": [],
        "violation": None,
    }
    rows1, rows2 = (dict(zip(sym.qs.tolist(), sym.params.tolist())) for sym in desc.pair)
    try:
        for q in sorted(rows1.keys() & rows2.keys()):
            payload["places"].append(_chain_at_place(q, rows1[q], rows2[q]))
    except CentralCharMismatch as exc:
        payload["violation"] = exc.constraint
        return 1, payload, ""
    except ValueError as exc:
        return 2, None, f"error: {exc}\n"
    if not all(entry["commutes"] for entry in payload["places"]):
        payload["violation"] = "commuting_diagram"
        return 1, payload, ""
    return 0, payload, ""


def oracle_text(payload) -> str:
    """Text output of ``transfer`` for an oracle payload of a lifted descriptor."""
    lines = ["transfer chain", f"  lifted from degree-2 pair: {payload['from_gso']}",
             f"  isobaric transfer: {' + '.join(payload['isobaric'])}"]
    lines += [f"  recorded: {cond}" for cond in payload["conditions"]]
    lines += [f"  q={entry['q']}: gl2 x gl2 -> gsp4 -> gl4, diagram {'commutes' if entry['commutes'] else 'FAILS'}"
              for entry in payload["places"]]
    lines.append(f"constraint failed: {payload['violation']}" if payload["violation"] else "consistency OK")
    return "\n".join(lines) + "\n"


PRIME_POWERS = [q for q in range(2, 2200) if q % 2 == 0 and q & (q - 1) == 0
                or all(q % p for p in range(2, math.isqrt(q) + 1))]


def seeded_lifted_doc(rng, n: int, self_dual: bool) -> dict:
    """A lifted descriptor over n places with equal central values, and the
    ties the canonical orders must break: alpha == beta, pairs with equal real
    parts, entries -0.0, and places where both constituents agree.

    Self-dual constituents carry unit pairs (alpha, conj alpha) under the
    trivial character; otherwise the first constituent fixes the central
    values and the second divides them by its alphas."""
    qs = sorted(rng.choice(PRIME_POWERS, size=n, replace=False).tolist())
    alphas, betas = [], []
    for k in range(2):
        radius = 1.0 if self_dual else np.exp(rng.normal(size=n))
        alpha = radius * np.exp(2j * np.pi * rng.random(n))
        quirk = rng.integers(4, size=n)
        alpha.real[quirk == 1] = -0.0
        if self_dual:
            alpha[quirk == 1] = alpha[quirk == 1] / np.abs(alpha[quirk == 1])
            alpha[quirk == 2] = np.where(rng.random(n) < 0.5, 1.0, -1.0)[quirk == 2]
            beta = np.conj(alpha)
        elif k == 0:
            beta = radius * np.exp(2j * np.pi * rng.random(n))
            beta[quirk == 2] = alpha[quirk == 2]
            beta[quirk == 3] = np.conj(alpha[quirk == 3])
            mu = alpha * beta
        else:
            beta = mu / alpha
        if k == 1:
            shared = rng.random(n) < 0.1
            shared[0] = False  # the constituents must differ somewhere
            alpha[shared], beta[shared] = alphas[0][shared], betas[0][shared]
        alphas.append(alpha)
        betas.append(beta)
    symbols = []
    for k, (alpha, beta) in enumerate(zip(alphas, betas)):
        local = {str(q): [[a.real, a.imag], [b.real, b.imag]]
                 for q, a, b in zip(qs, alpha.tolist(), beta.tolist())}
        sid = f"S{k}"
        symbols.append({"id": sid, "degree": 2, "dual": sid if self_dual else sid + "d",
                        "central_char": "1" if self_dual else "chi", "local": local})
    return {"symbols": symbols, "isobaric": [{"term": "S0", "r": "0"}, {"term": "S1", "r": "0"}],
            "from_gso": True, "gross_char": "1" if self_dual else "chi"}


def local_at_3_doc(p1, p2) -> dict:
    """``lifted_pair_doc`` with (alpha, beta) ``p1`` and ``p2`` of the two constituents at q = 3."""
    doc = lifted_pair_doc()
    doc["symbols"][0]["local"]["3"] = p1
    doc["symbols"][1]["local"]["3"] = p2
    return doc


def prefix_mismatch_doc() -> dict:
    """41 seeded places whose central values differ first at the 21st."""
    doc = seeded_lifted_doc(np.random.default_rng(5), 41, self_dual=False)
    q = sorted(doc["symbols"][1]["local"], key=int)[20]
    a, b = doc["symbols"][1]["local"][q]
    doc["symbols"][1]["local"][q] = [a, [b[0] * (1 + 1e-6), b[1] * (1 + 1e-6)]]
    return doc


def first_place_mismatch_doc() -> dict:
    doc = lifted_pair_doc()
    doc["symbols"][1]["local"]["2"] = [[2.0, 0.0], [1.0, 0.0]]
    return doc


def exponent_notation_doc() -> dict:
    """Values that JSON prints in exponent notation, at q = 7."""
    doc = lifted_pair_doc()
    doc["symbols"][0]["local"]["7"] = [[1e-05, 2.5e+17], [2.5e+17, -1e-05]]
    beta = complex(1e-05, 2.5e+17) * complex(2.5e+17, -1e-05) / 5e+17
    doc["symbols"][1]["local"]["7"] = [[5e+17, 0.0], [beta.real, beta.imag]]
    return doc


def empty_local_doc() -> dict:
    doc = lifted_pair_doc()
    for sym in doc["symbols"]:
        sym["local"] = {}
    return doc


# equal in value, not in bits: the GL(4) entries of P2 must print -0.0
SIGNED_ZEROS = ([[0.0, 1.0], [0.0, -1.0]], [[-0.0, 1.0], [-0.0, -1.0]])
# central values equal within tolerance, the diagram does not commute
NOT_COMMUTING = ([[1e-6, 0.0], [1e-7, 0.0]], [[1e-7, 0.0], [1e-7, 0.0]])

# valid lifted documents of the transfer oracle tests, by name
ORACLE_DOCS = {
    "seeded_self_dual": lambda: seeded_lifted_doc(np.random.default_rng(0), 300, self_dual=True),
    "seeded": lambda: seeded_lifted_doc(np.random.default_rng(1), 120, self_dual=False),
    "prefix_mismatch": prefix_mismatch_doc,
    "first_place_mismatch": first_place_mismatch_doc,
    "signed_zeros": lambda: local_at_3_doc(*SIGNED_ZEROS),
    "not_commuting": lambda: local_at_3_doc(*NOT_COMMUTING),
    "exponent_notation": exponent_notation_doc,
    "empty_local": empty_local_doc,
}


def assert_transfer_matches_oracle(capsys, tmp_path, doc):
    path = write_doc(tmp_path, doc)
    want_code, payload, want_err = oracle_transfer(json.loads(json.dumps(doc)))
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "transfer", "--in", path, "--format", fmt)
        assert (code, err) == (want_code, want_err)
        if payload is None:
            assert out == ""
        elif fmt == "json":
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            assert out == oracle_text(payload)
    return want_code, payload


class TestVerifyGroups:
    def test_q3_text(self, capsys):
        code, out, _ = run(capsys, "verify-groups", "--q", "3")
        assert code == 0
        assert "all assertions hold" in out
        assert "image 1152" in out

    def test_q3_json(self, capsys):
        code, out, _ = run(capsys, "verify-groups", "--q", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["image_size"] == 1152 and payload["equal"] is True
        assert "counterexample" not in payload

    def test_failed_check_shows_counterexample(self, capsys, monkeypatch):
        from gsp4transfer import simgroups

        enumerate_go4_codes = simgroups.enumerate_go4_codes

        def drop_one_gso_element(q, lam, pool, o4):
            (codes,) = enumerate_go4_codes(q, lam, pool, o4)
            if lam != 1:
                return (codes,)
            dropped.append(simgroups._decode(int(codes[0]), q))  # the first det = lambda^2 element of the first class
            return (codes[1:],)

        dropped = []
        monkeypatch.setattr(simgroups, "enumerate_go4_codes", drop_one_gso_element)
        code, out, _ = run(capsys, "verify-groups", "--q", "3")
        assert code == 1 and "image_equals_gso: FAIL" in out
        assert "counterexample (image_equals_gso): from image, lambda 1, det 1" in out
        assert "\n".join(f"    {list(row)}" for row in dropped[0]) in out
        code, out, _ = run(capsys, "verify-groups", "--q", "3", "--format", "json")
        cx = json.loads(out)["counterexample"]
        assert code == 1 and cx["side"] == "image" and cx["matrix"] == [list(r) for r in dropped[0]]
        assert len(dropped) == 2  # one element, once per run

    def test_even_q_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-groups", "--q", "4")
        assert code == 2
        assert "q must be one of" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify-groups", "--q", "3", "--format", "json", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["q"] == 3


class TestTransfer:
    def test_valid_chain(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc())
        code, out, _ = run(capsys, "transfer", "--in", path)
        assert code == 0
        assert "consistency OK" in out
        assert "P1 + P2" in out
        assert "diagram commutes" in out

    def test_valid_chain_json(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc())
        code, out, _ = run(capsys, "transfer", "--in", path, "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["isobaric"] == ["P1", "P2"]
        assert [entry["q"] for entry in payload["places"]] == [2, 5]
        assert all(entry["commutes"] for entry in payload["places"])
        assert payload["violation"] is None
        # embedded parameters round-trip through the module serializers
        from gsp4transfer.satake import GL4Param, param_from_json

        for entry in payload["places"]:
            assert isinstance(param_from_json(entry["gl4"]), GL4Param)
        # text output is derived from the same payload
        code, text, _ = run(capsys, "transfer", "--in", path)
        assert code == 0 and "P1 + P2" in text
        assert [line for line in text.splitlines() if line.startswith("  q=")] == [
            f"  q={entry['q']}: gl2 x gl2 -> gsp4 -> gl4, diagram commutes" for entry in payload["places"]
        ]

    def test_equal_constituents_exit_one(self, capsys, tmp_path):
        doc = lifted_pair_doc()
        doc["isobaric"] = [{"term": "P1", "r": "0"}, {"term": "P1", "r": "0"}]
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "transfer", "--in", path)
        assert code == 1
        assert "distinct_constituents" in out

    def test_central_char_mismatch_exit_one(self, capsys, tmp_path):
        doc = lifted_pair_doc()
        doc["symbols"][1]["central_char"] = "other"
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "transfer", "--in", path)
        assert code == 1
        assert "central_char_compatibility" in out

    def test_local_central_value_mismatch_exit_one(self, capsys, tmp_path):
        doc = lifted_pair_doc()
        # P2's parameters at q=2 no longer multiply to P1's central value
        doc["symbols"][1]["local"]["2"] = [[2.0, 0.0], [1.0, 0.0]]
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "transfer", "--in", path)
        assert code == 1
        assert "central_char_compatibility" in out

    def test_twisted_descriptor_terms_exit_one(self, capsys, tmp_path):
        # (2, 2; 1/2, -1/2): the shape lemma refuses it and its reason is recorded
        doc = lifted_pair_doc()
        doc["isobaric"][0]["r"] = "1/2"
        doc["isobaric"][1]["r"] = "-1/2"
        path = write_doc(tmp_path, doc)
        reason = "n_t = 2: a pole at s = 1 forces the last twist exponent to vanish"
        assert run(capsys, "transfer", "--in", path) == (
            1, f"transfer chain\n  recorded: {reason}\nconstraint failed: unitary_normalization\n", "")
        code, out, err = run(capsys, "transfer", "--in", path, "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"conditions": [reason], "from_gso": None, "isobaric": [], "places": [],
                                   "violation": "unitary_normalization"}
        # one term forms no degree-4 shape: the nonzero twist is refused as before, without a reason
        doc["isobaric"] = doc["isobaric"][:1]
        assert run(capsys, "transfer", "--in", write_doc(tmp_path, doc)) == (
            1, "transfer chain\nconstraint failed: unitary_normalization\n", "")

    @pytest.mark.parametrize("command", ["transfer", "poles"])
    @pytest.mark.parametrize("value, fault", [(math.nan, "is not finite"), (math.inf, "is not finite"),
                                              (1e-310, "has no finite inverse")])
    def test_non_finite_local_parameter_exit_two(self, capsys, tmp_path, command, value, fault):
        doc = lifted_pair_doc(dual_second=command == "poles")
        doc["symbols"][1]["local"]["5"][0] = [value, 0.0]
        path = write_doc(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, command, "--in", path)
        assert code == 2 and out == ""
        assert err == f"error: malformed document: symbol P2: a local parameter at q=5 {fault}\n"

    @pytest.mark.parametrize("command", ["transfer", "poles"])
    @pytest.mark.parametrize("dual", ["undeclared", "declared", "self"])
    def test_value_its_dual_cannot_hold_exit_two(self, capsys, tmp_path, command, dual):
        # numpy's 1 / (1e308 + 1e308j) underflows to zero; the symbol that holds it
        # is refused by name before any code divides or matches without the rule
        doc = lifted_pair_doc(dual_second=command == "poles")
        p1 = doc["symbols"][0]
        p1["local"]["2"][0] = [1e308, 1e308]
        if dual == "declared":
            doc["symbols"].append({"id": "P1d", "degree": 2, "dual": "P1", "central_char": "~chi",
                                   "local": {"2": [[0.6, -0.8], [0.6, 0.8]]}})
        elif dual == "self":
            p1["dual"] = "P1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == ("error: malformed document: symbol P1: a local parameter at q=2 "
                       "has an inverse that is zero or has no finite inverse\n")

    def test_self_dual_values_farther_apart_than_the_float_range_exit_two(self, capsys, tmp_path):
        # 1.5e308 and -6.7e307, the inverse of -1.5e-308, differ by more than the largest float
        doc = lifted_pair_doc()
        doc["symbols"][0].update(dual="P1", local={"2": [[1.5e308, 0.0], [-1.5e-308, 0.0]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == "error: malformed document: symbol P1: local data at q=2 is not inverse-closed, cannot be self-dual\n"

    @pytest.mark.parametrize("value, want", [(0, 0), (0.0, 0), (-0.0, 0), ("0", 0), ("-0/3", 0), (" 0 ", 0),
                                             (1, 1), (1e-300, 1), ("1/2", 1), ("5e-1", 1),
                                             (True, 2), (False, 2), (None, 0), ([0], 2), ("1/0", 2), ("x", 2),
                                             ("0e1000", 0), ("1e-1000", 1), ("0e3000000", 2), ("1e-1001", 2)])
    def test_twist_exponent_reads_numbers_and_rational_strings(self, capsys, tmp_path, value, want):
        doc = lifted_pair_doc()
        doc["isobaric"][0]["r"] = value
        code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
        assert code == want
        if want == 1:
            # (2, 2; r, 0) with r > 0 breaks sum(n_i * r_i) = 0
            assert out == ("transfer chain\n  recorded: unitarity forces sum(n_i * r_i) = 0\n"
                           "constraint failed: unitary_normalization\n") and err == ""
        elif want == 2:
            assert out == "" and err == ("error: malformed document: twist exponent r must be an integer, "
                                         f"a finite float or a rational string, got {value!r}\n")
            # refused also after a nonzero twist
            doc["isobaric"] = [{"term": "P1", "r": "1"}, {"term": "P2", "r": value}]
            assert run(capsys, "transfer", "--in", write_doc(tmp_path, doc))[:2] == (2, "")

    @pytest.mark.parametrize("field", ["twist", "r", "turns"])
    def test_huge_decimal_exponent_exits_two_at_once(self, capsys, tmp_path, field):
        # reading these exactly would build 10^3000000 or 10^999999999
        value = "0e3000000" if field == "twist" else "1e999999999"
        if field == "twist":
            doc = lifted_pair_doc()
            doc["isobaric"][0]["r"] = value
            argv = ["transfer", "--in", write_doc(tmp_path, doc)]
        else:
            doc = copy.deepcopy(RODIER_DOC)
            doc["exact"][0][field] = value
            argv = ["rodier", "--params", write_doc(tmp_path, doc), "--q", "9"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        name = "twist exponent r" if field == "twist" else f"exact form {field}"
        assert (code, out) == (2, "") and f"{name} must be an integer, a finite float or a rational string" in err

    @pytest.mark.parametrize("value", ["1/" + "2" * 4998, "x" * 5000, ["0"] * 2000])
    def test_long_refused_twist_gives_a_short_error_line(self, capsys, tmp_path, value):
        # in full, the refused value would make a line of thousands of bytes
        doc = lifted_pair_doc()
        doc["isobaric"][0]["r"] = value
        code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        shown = repr(value)
        assert err == ("error: malformed document: twist exponent r must be an integer, a finite float "
                       f"or a rational string, got {shown[:40]}... ({len(shown)} characters)\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("site", ["exact", "id_twice", "id_not_string", "kind", "degree"])
    def test_long_refused_value_gives_a_short_error_line(self, capsys, tmp_path, site):
        # each message echoes the refused value; in full it would make a line of over 5000 bytes
        long = "x" * 5000
        if site in ("exact", "kind"):
            doc = copy.deepcopy(RODIER_DOC)
            if site == "exact":
                doc["exact"][0] = long
            else:
                doc["kind"] = long
            argv = ["rodier", "--params", write_doc(tmp_path, doc), "--q", "9"]
        else:
            doc = lifted_pair_doc()
            first = doc["symbols"][0]
            if site == "id_twice":
                first["id"] = long
                doc["symbols"].append(dict(first))
            elif site == "id_not_string":
                first["id"] = ["x"] * 1000  # a repr of 5000 characters
            else:
                first["degree"] = long
            argv = ["transfer", "--in", write_doc(tmp_path, doc)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200 and "... (50" in err

    @pytest.mark.parametrize("command", ["transfer", "poles"])
    @pytest.mark.parametrize("key", ["1_3", "+13", " 13 ", "\u0661\u0663", "", "\ud800"])
    def test_place_key_not_decimal_digits_exit_two(self, capsys, tmp_path, command, key):
        # int() reads the first four keys as 13; a lone surrogate cannot be encoded
        doc = lifted_pair_doc(dual_second=command == "poles")
        p1, p2 = (sym["local"] for sym in doc["symbols"])
        p1[key], p2["13"] = p1["5"], p2["5"]
        code, out, err = run(capsys, command, "--in", write_doc(tmp_path, doc))
        assert code == 2 and out == ""
        assert err == f"error: malformed document: symbol P1: place key {ascii(key)} is not a decimal integer\n"

    def test_place_beyond_int64_exit_two(self, capsys, tmp_path):
        for key in ["9223372036854775808", "1" + "0" * 19, "9" * 5000]:  # int() refuses the last: over 4300 digits
            doc = lifted_pair_doc()
            doc["symbols"][0]["local"][key] = [[1, 0], [1, 0]]
            code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
            assert code == 2 and out == ""
            assert err == "error: malformed document: symbol P1: a place is beyond the int64 range\n"

    @pytest.mark.parametrize("command", ["transfer", "poles"])
    def test_duplicate_symbol_id_exit_two(self, capsys, tmp_path, command):
        doc = lifted_pair_doc(dual_second=command == "poles")
        doc["symbols"].append(dict(doc["symbols"][0], local={"3": [[1, 0], [1, 0]]}))
        code, out, err = run(capsys, command, "--in", write_doc(tmp_path, doc))
        assert code == 2 and out == ""
        assert err == "error: malformed document: symbol id 'P1' declared twice\n"

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, {}, []])
    def test_from_gso_not_boolean_exit_two(self, capsys, tmp_path, value):
        doc = lifted_pair_doc()
        doc["from_gso"] = value
        code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == "error: malformed document: from_gso must be true or false\n"

    @pytest.mark.parametrize("key", ["gross_char", "omega"])
    @pytest.mark.parametrize("value", [0, False, [], 5])
    def test_gross_char_and_omega_not_strings_exit_two(self, capsys, tmp_path, key, value):
        doc = lifted_pair_doc()
        doc[key] = value
        code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == "error: malformed document: gross_char and omega must be strings\n"

    def test_empty_gross_char_is_an_id(self, capsys, tmp_path):
        # only absent or null means absent; the constituents carry "chi", not ""
        doc = lifted_pair_doc()
        doc["gross_char"] = ""
        code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
        assert (code, err) == (1, "") and out.endswith("constraint failed: central_char_compatibility\n")

    def test_null_gross_char_and_omega_are_absent(self, capsys, tmp_path):
        doc = lifted_pair_doc()
        want = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
        doc["gross_char"] = doc["omega"] = None
        assert run(capsys, "transfer", "--in", write_doc(tmp_path, doc)) == want
        assert want[0] == 0 and "(x) chi" in want[1]

    @pytest.mark.parametrize("slot", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_in_local_pair_exit_two(self, capsys, tmp_path, slot, value):
        doc = lifted_pair_doc()
        doc["symbols"][0]["local"]["2"][slot[0]][slot[1]] = value
        code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc), "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: malformed document: symbol P1: local data must map places to [re, im] pairs\n"

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "transfer", "--in", str(tmp_path / "nope.json"))
        assert code == 2 and "cannot read" in err

    def test_malformed_document_exit_two(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"symbols": [], "isobaric": [{"term": "ghost", "r": "0"}], "from_gso": True})
        code, _, err = run(capsys, "transfer", "--in", path)
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("command", ["transfer", "poles"])
    @pytest.mark.parametrize("term, shown", [("ghost", "'ghost'"), ("g" * 5000, f"'{'g' * 39}... (5002 characters)")])
    def test_unknown_term_named(self, capsys, tmp_path, command, term, shown):
        doc = lifted_pair_doc(dual_second=command == "poles")
        if command == "poles":
            doc["descriptors"][1]["terms"][1] = term
        else:
            doc["isobaric"][1]["term"] = term
        code, out, err = run(capsys, command, "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"error: malformed document: descriptor term {shown} is not a declared symbol\n"

    @pytest.mark.parametrize("fault, message", [
        ("degree", "degree must be an integer, got 'x'"),
        ("short_pair", "local data must map places to [re, im] pairs"),
        ("zero", "a place is sampled twice or a parameter is zero"),
        ("not_inverse_closed", "local data at q=2 is not inverse-closed, cannot be self-dual"),
        ("place_key", "place key 'x2' is not a decimal integer"),
        ("big_degree", "degree must be in 1..4, got 9"),
        ("not_a_place", "residue cardinality must be a prime power >= 2, got 6"),
    ])
    def test_long_symbol_id_clipped(self, capsys, tmp_path, fault, message):
        # in full, a 5000-character id would make each line over 5000 bytes long
        doc = lifted_pair_doc()
        first = doc["symbols"][0]
        first["id"] = doc["isobaric"][0]["term"] = "s" * 5000
        local = first["local"]
        if fault == "degree":
            first["degree"] = "x"
        elif fault == "short_pair":
            local["2"] = [[0.6], [0.6, -0.8]]
        elif fault == "zero":
            local["2"] = [[0, 0], [1, 0]]
        elif fault == "not_inverse_closed":
            first["dual"] = first["id"]
            local["2"] = [[2, 0], [1, 0]]
        elif fault == "place_key":
            local["x2"] = local.pop("2")
        elif fault == "big_degree":
            first["degree"] = 9
        else:
            local["6"] = local.pop("2")
        code, out, err = run(capsys, "transfer", "--in", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"error: malformed document: symbol {'s' * 40}... (5000 characters): {message}\n"

    @pytest.mark.parametrize("corrupt", ["symbols_not_list", "top_level_array",
                                         "string_local_parameter", "zero_denominator",
                                         "null_degree", "isobaric_not_list", "list_id",
                                         "string_descriptors", "list_term",
                                         # present but falsy, and of the wrong type
                                         "local_zero", "local_list", "local_string", "local_false",
                                         "isobaric_zero", "isobaric_object", "isobaric_empty"])
    def test_malformed_types_exit_two_without_traceback(self, capsys, tmp_path, corrupt):
        doc = lifted_pair_doc()
        if corrupt == "symbols_not_list":
            doc = {"symbols": "x"}
        elif corrupt == "top_level_array":
            doc = [doc]
        elif corrupt == "string_local_parameter":
            doc["symbols"][0]["local"]["2"][0] = "1j"
        elif corrupt == "null_degree":
            doc = {"symbols": [{"id": "P1", "degree": None, "local": {}}], "isobaric": []}
        elif corrupt == "isobaric_not_list":
            doc = {"symbols": [], "isobaric": "x"}
        elif corrupt == "list_id":
            doc["symbols"][0]["id"] = ["P1"]
        elif corrupt == "string_descriptors":
            doc = {"symbols": doc["symbols"], "descriptors": "x"}
        elif corrupt == "list_term":
            doc["isobaric"][0]["term"] = ["P1"]
        elif corrupt.startswith("local_"):
            doc["symbols"][0]["local"] = {"zero": 0, "list": [], "string": "", "false": False}[corrupt[6:]]
        elif corrupt.startswith("isobaric_"):  # next to terms, which alone would be read
            doc["terms"] = ["P1", "P2"]
            doc["isobaric"] = {"zero": 0, "object": {}, "empty": []}[corrupt[9:]]
        else:
            doc["isobaric"][0]["r"] = "1/0"
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, "transfer", "--in", path)
        assert code == 2
        assert "error" in err and "Traceback" not in err


class TestTransferOracle:
    """The vectorized chain and the row-template JSON emission against the
    scalar chain and ``json.dumps``, byte for byte."""

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_documents_match_scalar_chain(self, capsys, tmp_path, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, int(rng.integers(3, 40)), 300 if seed % 3 == 0 else 120):
            doc = seeded_lifted_doc(rng, n, self_dual=seed % 2 == 0)
            code, payload = assert_transfer_matches_oracle(capsys, tmp_path, doc)
            assert code == 0 and len(payload["places"]) == n

    @pytest.mark.parametrize("self_dual", [False, True])
    def test_seeded_documents_have_ties(self, self_dual):
        doc = seeded_lifted_doc(np.random.default_rng(0), 300, self_dual)
        local = [sym["local"] for sym in doc["symbols"]]
        pairs = [pair for data in local for pair in data.values()]
        assert any(a == b for a, b in pairs)
        assert any(a[0] == b[0] and a[1] != b[1] for a, b in pairs)
        assert any(math.copysign(1, x) < 0 and x == 0 for a, b in pairs for x in a + b)
        assert any(local[0][q] == local[1][q] for q in local[0])

    def test_central_value_mismatch_keeps_prefix(self, capsys, tmp_path):
        doc = prefix_mismatch_doc()
        code, payload = assert_transfer_matches_oracle(capsys, tmp_path, doc)
        assert code == 1 and payload["violation"] == "central_char_compatibility"
        assert [e["q"] for e in payload["places"]] == sorted(map(int, doc["symbols"][1]["local"]))[:20]

    @pytest.mark.parametrize("p1, p2, want", [
        # alpha * beta overflows: central value check of the scalar GL(2) parameter
        ([[1e200, 0.0], [1e200, 0.0]], [[1.0, 0.0], [1.0, 0.0]], 2),
        # alpha * beta underflows to zero
        ([[1e-200, 0.0], [1e-200, 0.0]], [[1.0, 0.0], [1.0, 0.0]], 2),
        # mu / alpha_2 of the direct transfer underflows to zero
        ([[1e-150, 0.0], [1e-150, 0.0]], [[1e100, 0.0], [1e-113, 0.0]], 2),
        (*NOT_COMMUTING, 1),
    ])
    def test_extreme_magnitudes_match_scalar_chain(self, capsys, tmp_path, p1, p2, want):
        doc = local_at_3_doc(p1, p2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = assert_transfer_matches_oracle(capsys, tmp_path, doc)
        assert code == want

    def test_exponent_notation_empty_places_and_out_path(self, capsys, tmp_path):
        doc = exponent_notation_doc()
        code, payload = assert_transfer_matches_oracle(capsys, tmp_path, doc)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert code == 0 and "1e-05" in text and "2.5e+17" in text
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "transfer", "--in", write_doc(tmp_path, doc), "--format", "json",
                           "--out", str(target))
        assert code == 0 and out == "" and target.read_text() == text

        code, payload = assert_transfer_matches_oracle(capsys, tmp_path, empty_local_doc())
        assert code == 0 and payload["places"] == []

    def test_signed_zeros_keep_their_constituent(self, capsys, tmp_path):
        code, payload = assert_transfer_matches_oracle(capsys, tmp_path, local_at_3_doc(*SIGNED_ZEROS))
        entries = next(e for e in payload["places"] if e["q"] == 3)["gl4"]["entries"]
        assert code == 0 and [math.copysign(1, re) for re, _ in entries] == [1, -1, 1, -1]

    def test_mismatch_at_first_place_prints_no_places(self, capsys, tmp_path):
        doc = first_place_mismatch_doc()
        code, payload = assert_transfer_matches_oracle(capsys, tmp_path, doc)
        assert code == 1 and payload["places"] == []
        out = run(capsys, "transfer", "--in", write_doc(tmp_path, doc), "--format", "json")[1]
        assert '\n  "places": [],\n' in out

    @pytest.mark.parametrize("name", ORACLE_DOCS)
    def test_chain_slots_gather_the_scalar_entries(self, name):
        # gsp4 and gl4 are slots of gl2.reshape(-1, 4); gathered, they are the
        # scalar chain's GSp(4) and GL(4) entries bit for bit
        doc = ORACLE_DOCS[name]()
        chain = transfer_places(load_document(doc)[1][0])
        places = oracle_transfer(doc)[1]["places"]
        assert chain.qs.tolist() == [e["q"] for e in places]
        for kind in ("gsp4", "gl4"):
            slots = getattr(chain, kind)
            assert slots.dtype.kind == "i" and slots.shape == (len(places), 4)
            assert (np.sort(slots, axis=1) == np.arange(4)).all()
            gathered = np.take_along_axis(chain.gl2.reshape(-1, 4), slots, axis=1)
            want = np.array([e[kind]["entries"] for e in places], dtype=float).reshape(-1, 4, 2)
            assert (gathered.view(float).reshape(-1, 4, 2).view(np.uint64) == want.view(np.uint64)).all()
        # (t1, t4) and (t2, t3) are each one constituent's slots
        assert (chain.gsp4[:, [0, 1]] // 2 == chain.gsp4[:, [3, 2]] // 2).all()


class TestPoles:
    def test_case_3b_symbolic(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc(dual_second=True))
        code, out, _ = run(capsys, "poles", "--in", path)
        assert code == 0
        assert "case (3b)" in out
        assert "symbolic pole order at s=1: 2" in out

    def test_case_2_symbolic(self, capsys, tmp_path):
        doc = lifted_pair_doc(dual_second=True)
        doc["symbols"].append({"id": "Big", "degree": 4, "dual": "Bigd", "central_char": "w"})
        doc["descriptors"][1] = {"from_gso": False, "terms": ["Big"], "omega": "w"}
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "poles", "--in", path)
        assert code == 0
        assert "case (2)" in out and "order at s=1: 0" in out

    def test_case_3c_symbolic(self, capsys, tmp_path):
        doc = lifted_pair_doc(dual_second=True)
        # second descriptor shares exactly one dual constituent
        doc["symbols"].append(
            {
                "id": "P3",
                "degree": 2,
                "dual": "P3d",
                "central_char": "~chi",
                "local": {"2": [[0.28, 0.96], [0.28, -0.96]], "5": [[0.96, 0.28], [0.96, -0.28]]},
            }
        )
        doc["descriptors"][1] = {
            "from_gso": True,
            "terms": ["P1d", "P3"],
            "gross_char": "~chi",
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "poles", "--in", path)
        assert code == 0
        assert "case (3c)" in out and "order at s=1: 1" in out

    def test_numeric_mode(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc(dual_second=True))
        code, out, _ = run(
            capsys, "poles", "--in", path, "--mode", "both", "--X", "5000",
            "--seed", "31", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "3b" and payload["symbolic_order"] == 2
        assert abs(payload["estimate"] - 2) < 0.35
        assert payload["seed"] == 31 and payload["X"] == 5000
        assert len(payload["sweep"]["s"]) == 5

    def test_numeric_csv_sweep(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc(dual_second=True))
        target = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "poles", "--in", path, "--mode", "numeric", "--X", "3000",
            "--seed", "5", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "s,re,im" and len(lines) == 6

    def test_csv_out_matches_library_sweep_file(self, capsys, tmp_path):
        doc = lifted_pair_doc(dual_second=True)
        target, library = tmp_path / "cli.csv", tmp_path / "library.csv"
        code, _, _ = run(
            capsys, "poles", "--in", write_doc(tmp_path, doc), "--mode", "numeric", "--X", "3000",
            "--seed", "5", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        reps = synthetic_reps(load_document(doc)[1], 5, 3000)
        write_sweep_csv(library, estimate_with_sweep(reps[0], reps[1], 3000)[1])
        assert target.read_bytes() == library.read_bytes()
        assert b"\r" not in target.read_bytes()

    def test_single_descriptor_is_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc())
        code, _, err = run(capsys, "poles", "--in", path)
        assert code == 2 and "two descriptors" in err

    def test_csv_requires_numeric(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc(dual_second=True))
        code, _, err = run(capsys, "poles", "--in", path, "--format", "csv")
        assert code == 2 and "numeric" in err

    def test_csv_with_symbolic_mode_is_refused_before_the_document_is_read(self, capsys, monkeypatch, tmp_path):
        refusal = (2, "", "error: csv output needs --mode numeric or both\n")
        missing = str(tmp_path / "missing.json")
        assert run(capsys, "poles", "--in", missing, "--format", "csv") == refusal
        reads = []
        monkeypatch.setattr(cli, "_read_json", lambda *args: reads.append(args))
        path = write_doc(tmp_path, lifted_pair_doc(dual_second=True))
        assert run(capsys, "poles", "--in", path, "--mode", "symbolic", "--format", "csv") == refusal
        assert reads == []

    def test_duplicate_constituents_exit_one(self, capsys, tmp_path):
        doc = lifted_pair_doc(dual_second=True)
        doc["descriptors"][0]["terms"] = ["P1", "P1"]
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, "poles", "--in", path)
        assert code == 1 and "distinct_constituents" in err

    def test_twisted_descriptor_exit_one(self, capsys, tmp_path):
        doc = lifted_pair_doc(dual_second=True)
        doc["descriptors"][1]["isobaric"] = [{"term": "P1d", "r": "1/2"}, {"term": "P2d", "r": "-1/2"}]
        reason = "n_t = 2: a pole at s = 1 forces the last twist exponent to vanish"
        assert run(capsys, "poles", "--in", write_doc(tmp_path, doc)) == (
            1, "", f"  recorded: {reason}\nconstraint failed: unitary_normalization\n")
        # three terms form no degree-4 shape: refused as before, without a reason
        doc["descriptors"][1]["isobaric"].append({"term": "P1", "r": "0"})
        assert run(capsys, "poles", "--in", write_doc(tmp_path, doc)) == (
            1, "", "constraint failed: unitary_normalization\n")


# family B at q = 9
RODIER_DOC = {"kind": "gl4", "entries": [[1 / 3, 0.0], [1 / 3, 0.0], [3.0, 0.0], [3.0, 0.0]],
              "exact": [{"r": r, "turns": "0"} for r in ["-1/2", "-1/2", "1/2", "1/2"]]}


class TestRodier:
    def write_params(self, tmp_path, exacts):
        from fractions import Fraction

        doc = {
            "kind": "gl4",
            "entries": [[9.0 ** float(Fraction(r)), 0.0] for r in exacts],
            "exact": [{"r": r, "turns": "0"} for r in exacts],
        }
        return write_doc(tmp_path, doc, "params.json")

    def test_missing_entries_named(self, capsys, tmp_path):
        doc = {key: value for key, value in RODIER_DOC.items() if key != "entries"}
        code, out, err = run(capsys, "rodier", "--params", write_doc(tmp_path, doc), "--q", "9")
        assert (code, out) == (2, "")
        assert err == "error: cannot read parameters: a parameter document needs entries\n"

    @pytest.mark.parametrize("kind", ["gl2", "gsp4"])
    def test_other_kinds_refused(self, capsys, tmp_path, kind):
        # param_to_json writes every kind, and rodier reads gl4 only
        param = GL2Param.make(2, 3)
        if kind == "gsp4":
            param = theta_lift_params(param, GL2Param.make(1, 6))
        path = write_doc(tmp_path, param_to_json(param), "params.json")
        code, out, err = run(capsys, "rodier", "--params", path, "--q", "9")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read parameters: expected a gl4 parameter document, got kind '{kind}'\n"

    @pytest.mark.parametrize("missing", ["r", "turns"])
    def test_exact_form_without_r_or_turns_named(self, capsys, tmp_path, missing):
        doc = copy.deepcopy(RODIER_DOC)
        del doc["exact"][2][missing]
        code, out, err = run(capsys, "rodier", "--params", write_doc(tmp_path, doc), "--q", "9")
        assert (code, out) == (2, "")
        assert err == ("error: cannot read parameters: an exact form must be an object with r and turns, "
                       f"got {doc['exact'][2]!r}\n")

    def test_family_b(self, capsys, tmp_path):
        path = self.write_params(tmp_path, ["-1/2", "-1/2", "1/2", "1/2"])
        code, out, _ = run(capsys, "rodier", "--params", path, "--q", "9")
        assert code == 0
        assert "family B" in out

    def test_family_a_with_r(self, capsys, tmp_path):
        path = self.write_params(tmp_path, ["-1/2", "-1/8", "1/8", "1/2"])
        code, out, _ = run(capsys, "rodier", "--params", path, "--q", "9", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"]["family"] == "A"
        assert payload["verdict"]["r"] == "1/8"

    def test_not_in_list(self, capsys, tmp_path):
        path = self.write_params(tmp_path, ["-1/2", "-3/10", "3/10", "1/2"])
        code, out, _ = run(capsys, "rodier", "--params", path, "--q", "9")
        assert code == 0
        assert "not in the exponent list" in out

    def test_exact_forms_disagreeing_with_floats_exit_two(self, capsys, tmp_path):
        doc = {
            "kind": "gl4",
            "entries": [[5.0, 0.0]] * 4,
            "exact": [{"r": r, "turns": "0"} for r in ["-1/2", "-1/2", "1/2", "1/2"]],
        }
        path = write_doc(tmp_path, doc, "params.json")
        code, out, err = run(capsys, "rodier", "--params", path, "--q", "9")
        assert code == 2
        assert "error" in err and "family B" not in out

    def test_zero_parameter_exit_two(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"kind": "gl4", "entries": [[0, 0]] * 4}, "zero.json")
        code, _, err = run(capsys, "rodier", "--params", path, "--q", "9")
        assert code == 2

    def test_bad_q_exit_two(self, capsys, tmp_path):
        path = self.write_params(tmp_path, ["0", "0", "0", "0"])
        code, _, err = run(capsys, "rodier", "--params", path, "--q", "6")
        assert code == 2

    def test_q_beyond_int64_takes_the_scalar_check(self, capsys, tmp_path):
        q = 3**41  # above the int64 range, so no place array can hold it
        doc = {"kind": "gl4", "entries": [[q**-0.5, 0.0]] * 2 + [[q**0.5, 0.0]] * 2}
        path = write_doc(tmp_path, doc, "params.json")
        code, out, err = run(capsys, "rodier", "--params", path, "--q", str(q))
        assert (code, err) == (0, "") and out.endswith("verdict: family B\n")
        code, out, err = run(capsys, "rodier", "--params", path, "--q", str(PRIME_POWER_LIMIT))
        assert (code, out) == (2, "") and "must be below" in err

    @pytest.mark.parametrize("field, value", [("entries", [[True, 0.0], [1 / 3, 0.0], [3.0, 0.0], [3.0, 0.0]]),
                                              ("entries", [[1 / 3, False]] * 2 + [[3.0, 0.0]] * 2),
                                              ("mu", [True, 0.0])])
    def test_boolean_in_pair_exit_two(self, capsys, tmp_path, field, value):
        # a JSON boolean is not a number, also among numbers
        doc = dict(RODIER_DOC, **{field: value})
        code, out, err = run(capsys, "rodier", "--params", write_doc(tmp_path, doc), "--q", "9")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read parameters: {field} must be [re, im] pairs of numbers\n"

    @pytest.mark.parametrize("r", ["1e400", "-" + "9" * 999], ids=["1e400", "1000_characters"])
    def test_overflowing_exact_form_gives_a_short_error_line(self, capsys, tmp_path, r):
        # r in full would be a line of hundreds of digits
        doc = copy.deepcopy(RODIER_DOC)
        doc["exact"][0]["r"] = r
        code, out, err = run(capsys, "rodier", "--params", write_doc(tmp_path, doc), "--q", "9")
        assert (code, out) == (2, "")
        assert err.startswith("error: q^r is beyond the float range at q=9, r~") and len(err) <= 80
        assert err.endswith("e+400\n" if r == "1e400" else "-1.000e+999\n")

    def test_exact_forms_read_numbers_and_rational_strings(self, capsys, tmp_path):
        want = run(capsys, "rodier", "--params", write_doc(tmp_path, RODIER_DOC), "--q", "9", "--format", "json")
        doc = copy.deepcopy(RODIER_DOC)
        doc["exact"] = [{"r": r, "turns": turns}
                        for r, turns in [(-0.5, 0), ("-1/2", 1), (" 1/2 ", 0.0), ("5e-1", "-2/2")]]
        got = run(capsys, "rodier", "--params", write_doc(tmp_path, doc), "--q", "9", "--format", "json")
        assert got == want and want[0] == 0 and '"family": "B"' in want[1]

    @pytest.mark.parametrize("corrupt", ["top_level_list", "top_level_string", "entries_number",
                                         "string_coordinate", "one_element_pair", "exact_true",
                                         "exact_numbers", "mu_string", "zero_denominator",
                                         "huge_r", "infinite_turns", "nan_entry", "huge_entry",
                                         "short_exact", "long_exact", "true_r", "false_turns",
                                         # present but falsy, and of the wrong type or length
                                         "exact_empty", "exact_zero", "exact_false", "exact_object"])
    def test_malformed_parameters_exit_two(self, capsys, tmp_path, corrupt):
        doc = copy.deepcopy(RODIER_DOC)
        if corrupt == "top_level_list":
            doc = [doc]
        elif corrupt == "top_level_string":
            doc = "gl4"
        elif corrupt == "entries_number":
            doc["entries"] = 5
        elif corrupt == "string_coordinate":
            doc["entries"][1][0] = "x"
        elif corrupt == "one_element_pair":
            doc["entries"][1] = [3.0]
        elif corrupt == "exact_true":
            doc["exact"] = True
        elif corrupt == "exact_numbers":
            doc["exact"] = [5, 5, 5, 5]
        elif corrupt == "mu_string":
            doc["mu"] = "x"
        elif corrupt == "zero_denominator":
            doc["exact"][0]["r"] = "1/0"
        elif corrupt == "huge_r":
            doc["exact"][0]["r"] = 2**70
        elif corrupt == "infinite_turns":
            doc["exact"][0]["turns"] = math.inf
        elif corrupt == "nan_entry":
            doc["entries"][0] = [math.nan, 0.0]
        elif corrupt == "short_exact":
            doc["exact"] = doc["exact"][:1]
        elif corrupt == "long_exact":
            doc["exact"].append(doc["exact"][0])
        elif corrupt == "true_r":  # Fraction(True) is 1, but a JSON boolean is not a number
            doc["exact"][0]["r"] = True
        elif corrupt == "false_turns":  # every turns false would read as family B
            for form in doc["exact"]:
                form["turns"] = False
        elif corrupt in ("exact_empty", "exact_zero", "exact_false", "exact_object"):
            doc["exact"] = {"exact_empty": [], "exact_zero": 0, "exact_false": False, "exact_object": {}}[corrupt]
        text = json.dumps(doc)
        if corrupt == "huge_entry":
            text = text.replace("3.0", "1e400", 1)
        path = tmp_path / "params.json"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "rodier", "--params", str(path), "--q", "9", "--format", "json")
        assert (code, out) == (2, "")
        # q^r overflows only at a given q, so that one is found after reading
        prefix = "error: " if corrupt == "huge_r" else "error: cannot read parameters: "
        assert err.startswith(prefix) and err.count("\n") == 1
        if corrupt.endswith("_exact"):
            assert f"exact has length {len(doc['exact'])} but entries has length 4" in err


@pytest.mark.parametrize("key, code", [
    ("central_char", 0), ("from_gso", 0), ("symbols", 2), ("mu", 0), ("r", 0), ("descriptors", 0),
])
def test_null_reads_as_absent(capsys, tmp_path, key, code):
    """One null rule for every optional key: a key set to null gives the
    output and exit code of the key left out."""
    argv, doc = ["transfer", "--in"], {"terms": ["B"]}  # without symbols the term names none
    holders = [doc]
    if key == "central_char":  # then "1" for each symbol, as for the grossencharacter
        doc = lifted_pair_doc()
        del doc["gross_char"]
        holders = doc["symbols"]
    elif key == "r":  # then 0: a lifted pair with no twist
        doc = lifted_pair_doc()
        holders = doc["isobaric"]
    elif key == "descriptors":  # then the flat form
        doc = lifted_pair_doc()
        holders = [doc]
    elif key == "from_gso":  # then false: the one term is a degree-4 symbol
        doc["symbols"] = [{"id": "B", "degree": 4, "dual": "B", "local": {"2": [[1, 0], [1, 0], [-1, 0], [-1, 0]]}}]
    elif key == "mu":  # of a gl4 document, then not read
        argv, doc = ["rodier", "--q", "9", "--params"], copy.deepcopy(RODIER_DOC)
        holders = [doc]
    for holder in holders:
        holder.pop(key, None)
    want = run(capsys, *argv, write_doc(tmp_path, doc))
    for holder in holders:
        holder[key] = None
    assert run(capsys, *argv, write_doc(tmp_path, doc)) == want
    assert want[0] == code


class TestParser:
    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command_exit_two(self, capsys):
        code = main(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify-groups", "--q", "13"],
        ["transfer", "--in", "missing.json"],
        ["rodier", "--params", "missing.json", "--q", "5"],
    ])
    def test_unavailable_format_is_refused_before_the_command_runs(self, capsys, monkeypatch, tmp_path, argv):
        """csv is refused before the command runs: the format error is printed even when the
        document is missing too, and the command function is never called."""
        argv = [str(tmp_path / arg) if arg == "missing.json" else arg for arg in argv] + ["--format", "csv"]
        refusal = (2, "", "error: csv format is not available for this command\n")
        assert run(capsys, *argv) == refusal
        calls = []
        parse_args = cli.build_parser().parse_args

        class Parser:
            def parse_args(self, argv):
                args = parse_args(argv)
                args.func = lambda args: calls.append(args) or ({}, 0)
                return args

        monkeypatch.setattr(cli, "build_parser", Parser)
        assert run(capsys, *argv) == refusal and calls == []
        assert run(capsys, *argv[:-2], "--format", "json") == (0, "{}\n", "") and len(calls) == 1


# ---------------------------------------------------------------------------
# exit-code contract on mutated documents
# ---------------------------------------------------------------------------

CONSTRAINT_NAMES = ("central_char_compatibility", "distinct_constituents",
                    "unitary_normalization", "commuting_diagram")
FUZZ_KEYS = st.sampled_from(["", "2", "5", "6", "-3", "x", "id", "dual", "degree", "local",
                             "r", "turns", "term", "terms", "entries", "exact", "mu", "kind"])
FUZZ_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),  # NaN and the infinities included
    st.sampled_from(["", "x", "0", "1/0", "1/2", "-1/2", "1e400", "chi", "~chi", "P1", "P1d", "P2", "gl2", "gl4"]),
)
FUZZ_VALUES = st.one_of(
    st.floats(0.25, 4) | st.floats(-4, -0.25),  # well-typed values, so that many documents get far
    st.sampled_from([0, 1, -1, 2, 0.5, "0"]),
    st.recursive(
        FUZZ_LEAVES,
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(FUZZ_KEYS, kids, max_size=3),
        max_leaves=6,
    ),
)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, base):
    """``base`` after one to three edits: a value replaced (by a new value or a
    copy of another part of the document), deleted or inserted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = sorted(_paths(doc), key=len, reverse=True)  # draws favour the first: leaves
        path = draw(st.sampled_from(paths))
        value = draw(FUZZ_VALUES)
        if draw(st.booleans()):
            value = doc
            for key in draw(st.sampled_from(paths)):
                value = value[key]
            value = copy.deepcopy(value)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "replace", "replace", "delete", "insert"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "insert" and isinstance(parent, list):
            parent.insert(path[-1], value)
        elif action == "insert":
            parent[draw(FUZZ_KEYS)] = value
        else:
            parent[path[-1]] = value
    return doc


class TestExitContractFuzz:
    """Mutated documents never make ``main`` raise or break the exit codes: 0,
    1 only with a named constraint, 2 with an error line; JSON output on exit
    0 holds no NaN or Infinity."""

    @pytest.mark.parametrize("command, base, argv, examples", [
        ("transfer", lifted_pair_doc(), ["--in"], 100),
        ("poles", lifted_pair_doc(dual_second=True), ["--mode", "both", "--X", "300", "--in"], 60),
        ("rodier", RODIER_DOC, ["--q", "9", "--params"], 120),
    ])
    def test_mutated_documents(self, tmp_path, command, base, argv, examples):
        path = tmp_path / "doc.json"

        def reject_constant(name):
            raise AssertionError(f"JSON output holds {name}")

        @settings(max_examples=examples, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(doc=mutated(base), fmt=st.sampled_from(["json", "text"]))
        def check(doc, fmt):
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, *argv, str(path), "--format", fmt])
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2)
            if code == 1:
                assert any(name in out + err for name in CONSTRAINT_NAMES), (out, err)
            elif code == 2:
                assert out == "" and err.startswith("error: "), (out, err)
            elif fmt == "json":
                json.loads(out, parse_constant=reject_constant)

        check()


class TestExitContractFiles:
    """Faults of the input and output files, not of the document's contents:
    exit 2, nothing on stdout and one ``error:`` line on stderr."""

    INPUT_ARGV = {
        "transfer": ["--in"],
        "poles": ["--mode", "both", "--X", "300", "--in"],
        "rodier": ["--q", "9", "--params"],
    }

    @staticmethod
    def assert_one_error_line(code, out, err):
        assert code == 2 and out == "", (code, out, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["transfer", "poles", "rodier"])
    @pytest.mark.parametrize("fault", ["deep_nesting", "invalid_utf8", "empty", "directory"])
    def test_unreadable_input(self, capsys, tmp_path, command, fault):
        path = tmp_path / "doc.json"
        if fault == "directory":
            path.mkdir()
        else:
            path.write_bytes({"deep_nesting": b"[" * 200_000, "invalid_utf8": b'{"\xff\xfe": 1}',
                              "empty": b""}[fault])
        code, out, err = run(capsys, command, *self.INPUT_ARGV[command], str(path))
        self.assert_one_error_line(code, out, err)
        what = "parameters" if command == "rodier" else "descriptor file"
        assert err.startswith(f"error: cannot read {what}: "), err

    def test_utf8_whatever_the_locale(self, tmp_path):
        # symbol ids outside ASCII, read under the C locale with UTF-8 mode off
        doc = json.dumps(lifted_pair_doc(), ensure_ascii=False).replace('"P1', '"Pé').replace('"P2', '"Qé')
        path = tmp_path / "doc.json"
        path.write_text(doc, encoding="utf-8")
        target = tmp_path / "out.txt"
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": str(SRC)}
        env.pop("PYTHONIOENCODING", None)
        outs = []
        for tail in (["--format", "json"], ["--out", str(target)], []):
            proc = subprocess.run([sys.executable, "-m", "gsp4transfer.cli", "transfer", "--in", str(path), *tail],
                                  capture_output=True, env=env)
            assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
            outs.append(proc.stdout)
        assert json.loads(outs[0])["isobaric"] == ["Pé", "Qé"]
        assert "  isobaric transfer: Pé + Qé\n" in target.read_text(encoding="utf-8")
        assert outs[2].decode("utf-8") == target.read_text(encoding="utf-8")

    @pytest.mark.parametrize("command", ["verify-groups", "transfer", "poles", "rodier"])
    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_unwritable_output(self, capsys, tmp_path, command, target):
        argv = {
            "verify-groups": ["--q", "3"],
            "transfer": ["--in", write_doc(tmp_path, lifted_pair_doc(), "lift.json")],
            "poles": ["--in", write_doc(tmp_path, lifted_pair_doc(dual_second=True), "pair.json")],
            "rodier": ["--q", "9", "--params", write_doc(tmp_path, RODIER_DOC, "gl4.json")],
        }[command]
        assert run(capsys, command, *argv)[0] == 0
        out = tmp_path / "missing" / "out.txt" if target == "missing_directory" else tmp_path
        self.assert_one_error_line(*run(capsys, command, *argv, "--out", str(out)))

    def test_x_above_sieve_bound(self, capsys, tmp_path, monkeypatch):
        from gsp4transfer import lseries

        monkeypatch.setattr(lseries, "MAX_X", 1000)
        path = write_doc(tmp_path, lifted_pair_doc(dual_second=True))
        code, out, err = run(capsys, "poles", "--in", path, "--mode", "both", "--X", "1001")
        self.assert_one_error_line(code, out, err)
        assert err.startswith("error: numeric estimate failed: ")
        assert run(capsys, "poles", "--in", path, "--mode", "both", "--X", "1000")[0] == 0
