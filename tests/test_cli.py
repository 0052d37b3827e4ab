import copy
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsp4transfer.cli import _text_transfer, main
from gsp4transfer.isobaric import load_document, transfer, transfer_conditions
from gsp4transfer.satake import (
    CentralCharMismatch,
    GL2Param,
    gsp4_to_gl4_embed,
    match_multisets,
    param_to_json,
    theta_lift_params,
    transfer_gsp4_to_gl4,
)


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


def _chain_at_place(desc, pl) -> dict:
    """Reference oracle: the parameter chain at one place through the scalar
    ``satake`` route, as the payload entry of ``transfer``."""
    p1, p2 = desc.pair
    a1, b1 = p1.local_params[pl]
    a2, b2 = p2.local_params[pl]
    g1 = GL2Param.make(a1, b1)
    g2 = GL2Param.make(a2, b2)
    lifted = theta_lift_params(g1, g2)
    embedded = gsp4_to_gl4_embed(lifted)
    direct = transfer_gsp4_to_gl4(lifted.mu, g1.alpha, g2.alpha)
    commutes = match_multisets(embedded.entries, direct.entries)
    return {
        "q": pl.q,
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
    common = set.intersection(*(set(sym.local_params) for sym in desc.pair))
    try:
        for pl in sorted(common, key=lambda p: p.q):
            payload["places"].append(_chain_at_place(desc, pl))
    except CentralCharMismatch as exc:
        payload["violation"] = exc.constraint
        return 1, payload, ""
    except ValueError as exc:
        return 2, None, f"error: {exc}\n"
    if not all(entry["commutes"] for entry in payload["places"]):
        payload["violation"] = "commuting_diagram"
        return 1, payload, ""
    return 0, payload, ""


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
            assert out == _text_transfer(payload)
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

        def drop_one_gso_element(q):
            codes, lams, dets = enumerate_go4_codes(q)
            i = int(np.nonzero(dets == lams * lams % q)[0][0])
            dropped.append(simgroups._decode(int(codes[i]), q))
            keep = np.arange(len(codes)) != i
            return codes[keep], lams[keep], dets[keep]

        dropped = []
        monkeypatch.setattr(simgroups, "enumerate_go4_codes", drop_one_gso_element)
        code, out, _ = run(capsys, "verify-groups", "--q", "3")
        assert code == 1 and "image_equals_gso: FAIL" in out
        assert "counterexample (image_equals_gso): from image, lambda 1, det 1" in out
        assert "\n".join(f"    {list(row)}" for row in dropped[0]) in out
        code, out, _ = run(capsys, "verify-groups", "--q", "3", "--format", "json")
        cx = json.loads(out)["counterexample"]
        assert code == 1 and cx["side"] == "image" and cx["matrix"] == [list(r) for r in dropped[0]]

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
        from gsp4transfer.cli import _text_transfer

        assert "P1 + P2" in _text_transfer(payload)

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
        doc = lifted_pair_doc()
        doc["isobaric"][0]["r"] = "1/2"
        doc["isobaric"][1]["r"] = "-1/2"
        path = write_doc(tmp_path, doc)
        code, out, _ = run(capsys, "transfer", "--in", path)
        assert code == 1
        assert "unitary_normalization" in out

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

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "transfer", "--in", str(tmp_path / "nope.json"))
        assert code == 2 and "cannot read" in err

    def test_malformed_document_exit_two(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"symbols": [], "isobaric": [{"term": "ghost", "r": "0"}], "from_gso": True})
        code, _, err = run(capsys, "transfer", "--in", path)
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("corrupt", ["symbols_not_list", "top_level_array",
                                         "string_local_parameter", "zero_denominator",
                                         "null_degree", "isobaric_not_list", "list_id",
                                         "string_descriptors", "list_term"])
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
        doc = seeded_lifted_doc(np.random.default_rng(5), 41, self_dual=False)
        q = sorted(doc["symbols"][1]["local"], key=int)[20]
        a, b = doc["symbols"][1]["local"][q]
        doc["symbols"][1]["local"][q] = [a, [b[0] * (1 + 1e-6), b[1] * (1 + 1e-6)]]
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
        # central values equal within tolerance, the diagram does not commute
        ([[1e-6, 0.0], [1e-7, 0.0]], [[1e-7, 0.0], [1e-7, 0.0]], 1),
    ])
    def test_extreme_magnitudes_match_scalar_chain(self, capsys, tmp_path, p1, p2, want):
        doc = lifted_pair_doc()
        doc["symbols"][0]["local"]["3"] = p1
        doc["symbols"][1]["local"]["3"] = p2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = assert_transfer_matches_oracle(capsys, tmp_path, doc)
        assert code == want

    def test_exponent_notation_empty_places_and_out_path(self, capsys, tmp_path):
        doc = lifted_pair_doc()
        doc["symbols"][0]["local"]["7"] = [[1e-05, 2.5e+17], [2.5e+17, -1e-05]]
        beta = complex(1e-05, 2.5e+17) * complex(2.5e+17, -1e-05) / 5e+17
        doc["symbols"][1]["local"]["7"] = [[5e+17, 0.0], [beta.real, beta.imag]]
        code, payload = assert_transfer_matches_oracle(capsys, tmp_path, doc)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert code == 0 and "1e-05" in text and "2.5e+17" in text
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "transfer", "--in", write_doc(tmp_path, doc), "--format", "json",
                           "--out", str(target))
        assert code == 0 and out == "" and target.read_text() == text

        for sym in doc["symbols"]:
            sym["local"] = {}
        code, payload = assert_transfer_matches_oracle(capsys, tmp_path, doc)
        assert code == 0 and payload["places"] == []


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

    def test_single_descriptor_is_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc())
        code, _, err = run(capsys, "poles", "--in", path)
        assert code == 2 and "two descriptors" in err

    def test_csv_requires_numeric(self, capsys, tmp_path):
        path = write_doc(tmp_path, lifted_pair_doc(dual_second=True))
        code, _, err = run(capsys, "poles", "--in", path, "--format", "csv")
        assert code == 2 and "numeric" in err

    def test_duplicate_constituents_exit_one(self, capsys, tmp_path):
        doc = lifted_pair_doc(dual_second=True)
        doc["descriptors"][0]["terms"] = ["P1", "P1"]
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, "poles", "--in", path)
        assert code == 1 and "distinct_constituents" in err


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

    @pytest.mark.parametrize("corrupt", ["top_level_list", "top_level_string", "entries_number",
                                         "string_coordinate", "one_element_pair", "exact_true",
                                         "exact_numbers", "mu_string", "zero_denominator",
                                         "huge_r", "infinite_turns", "nan_entry", "huge_entry"])
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


class TestParser:
    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command_exit_two(self, capsys):
        code = main(["frobnicate"])
        assert code == 2


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
