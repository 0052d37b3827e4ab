import json

import numpy as np
import pytest

from gsp4transfer.cli import main


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


class TestParser:
    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command_exit_two(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
