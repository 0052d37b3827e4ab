"""Command-line surface: group verification, transfers, poles, exponents.

One binary with subcommands.  Every command builds a JSON payload first
and derives any text rendering from it, so the two formats cannot drift.
Exit codes are a stable contract: 0 success, 1 a named constraint of the
calculus fails on valid input, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache
from itertools import starmap

import numpy as np

from . import __version__
from .isobaric import (
    ConstituentsNotDistinct,
    NotUnitaryNormalized,
    PlaceChain,
    jiang_case_analysis,
    load_document,
    transfer,
    transfer_conditions,
    transfer_places,
)
from .lseries import EstimationError, LocalPole, estimate_with_sweep, synthetic_reps
from .satake import (
    CentralCharMismatch,
    GL4Param,
    PlaceData,
    exponents,
    param_doc,
    param_from_json,
    rodier_class,
)
from .simgroups import SUPPORTED_Q, verify_gso_presentation

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_USAGE = 2

CONSTRAINT_GROUPS = "pair_map_presentation"
# Failures of a named constraint on valid input; each carries its name in ``constraint``.
CONSTRAINT_ERRORS = (CentralCharMismatch, ConstituentsNotDistinct, NotUnitaryNormalized)


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline; a
    ``_Places`` under ``places`` is spliced in from its rows.  Top-level keys
    are the only lines that start with two spaces and a quote."""
    places = payload.get("places")
    if not isinstance(places, _Places):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    text = json.dumps({**payload, "places": []}, indent=2, sort_keys=True)
    if len(places):
        text = text.replace('\n  "places": []', '\n  "places": [\n' + places.json_rows() + "\n  ]", 1)
    return text + "\n"


def _emit(payload: dict, fmt: str, out: str | None, render_text, render_csv=None) -> None:
    if fmt == "json":
        text = _json_text(payload)
    elif fmt == "csv":
        if render_csv is None:
            raise ValueError("csv format is not available for this command")
        text = render_csv(payload)
    else:
        text = render_text(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify-groups
# ---------------------------------------------------------------------------


def _text_verify_groups(payload: dict) -> str:
    lines = [f"similitude group check over F_{payload['q']}"]
    for name, passed in payload["checks"].items():
        lines.append(f"  {name}: {'ok' if passed else 'FAIL'}")
    lines.append(
        f"  kernel {payload['kernel_size']} (expected {payload['kernel_expected']}), "
        f"image {payload['image_size']} (expected {payload['image_expected']}), "
        f"gso {payload['gso_size']}, go {payload['go_size']}"
    )
    cx = payload.get("counterexample")
    if cx and "pair" in cx:
        lines.append(f"  counterexample ({cx['check']}): non-scalar kernel pair {cx['pair'][0]}, {cx['pair'][1]}")
    elif cx:
        lines.append(f"  counterexample ({cx['check']}): from {cx['side']}, lambda {cx['lam']}, det {cx['det']}")
        lines.extend(f"    {row}" for row in cx["matrix"])
    lines.append("all assertions hold" if payload["ok"] else f"constraint failed: {CONSTRAINT_GROUPS}")
    return "\n".join(lines) + "\n"


def _cmd_verify_groups(args) -> int:
    report = verify_gso_presentation(args.q)
    payload = report.to_json()
    _emit(payload, args.format, args.out, _text_verify_groups)
    return EXIT_OK if report.ok else EXIT_CONSTRAINT


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def _place_doc(q, commutes, *v) -> dict:
    """One entry of a transfer payload's ``places`` from its flat values: q,
    commutes, then 28 floats, the [re, im] pairs of alpha, beta and mu of each
    GL(2) parameter, of the rendered GSp(4) tuple and of the GL(4) entries."""
    pairs = [list(v[i : i + 2]) for i in range(0, len(v), 2)]
    return {
        "q": q,
        "gl2": [param_doc("gl2", pairs[0:2], pairs[2]), param_doc("gl2", pairs[3:5], pairs[5])],
        "gsp4": param_doc("gsp4", pairs[6:10], list(pairs[2])),
        "gl4": param_doc("gl4", pairs[10:14]),
        "commutes": commutes,
    }


@lru_cache(maxsize=None)
def _place_template() -> tuple[str, tuple[int, ...]]:
    """The JSON text of one ``places`` entry, at its depth in the payload, as
    a %-format, and the flat value (argument of ``_place_doc``) for each slot.

    It is read off the encoder: ``json.dumps(..., indent=2, sort_keys=True)``
    of an entry whose values are the markers "@0", "@1", ..., so the layout
    cannot drift from ``json.dumps`` of the entry itself.  %s renders ints and
    finite floats as JSON does (``float.__repr__``).
    """
    text = json.dumps(_place_doc(*(f"@{k}" for k in range(30))), indent=2, sort_keys=True)
    slots = tuple(int(k) for k in re.findall(r'"@(\d+)"', text))
    text = re.sub(r'"@\d+"', "%s", text.replace("%", "%%"))
    return "    " + text.replace("\n", "\n    "), slots


class _Places:
    """``places`` of a transfer payload, held as columns of a ``PlaceChain``.

    Iterating gives the entries as dicts; ``_json_text`` formats the rows
    straight from the columns through ``_place_template``.
    """

    def __init__(self, chain: PlaceChain):
        floats = np.concatenate(
            [chain.gl2[:, 0], chain.mu[:, :1], chain.gl2[:, 1], chain.mu[:, 1:], chain.gsp4, chain.gl4],
            axis=1,
        ).view(float)  # (P, 28): re, im interleaved
        self.columns = [chain.qs.tolist(), chain.commutes.tolist(), *floats.T.tolist()]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return starmap(_place_doc, zip(*self.columns))

    def json_rows(self) -> str:
        template, slots = _place_template()
        columns = [self.columns[0], ["true" if c else "false" for c in self.columns[1]], *self.columns[2:]]
        return ",\n".join(template % row for row in zip(*(columns[k] for k in slots)))


def _text_transfer(payload: dict) -> str:
    lines = ["transfer chain"]
    if payload["from_gso"] is not None:
        lines.append(f"  lifted from degree-2 pair: {payload['from_gso']}")
    if payload["isobaric"]:
        lines.append(f"  isobaric transfer: {' + '.join(payload['isobaric'])}")
    for cond in payload["conditions"]:
        lines.append(f"  recorded: {cond}")
    for entry in payload["places"]:
        lines.append(
            f"  q={entry['q']}: gl2 x gl2 -> gsp4 -> gl4, "
            f"diagram {'commutes' if entry['commutes'] else 'FAILS'}"
        )
    if payload["violation"]:
        lines.append(f"constraint failed: {payload['violation']}")
    else:
        lines.append("consistency OK")
    return "\n".join(lines) + "\n"


def _load_descriptors(args, report_constraint) -> list | int:
    """The descriptors of the ``--in`` document, or the exit code once the
    failure is reported: 2 for an unreadable or malformed document, 1 for a
    named constraint, whose name goes to ``report_constraint``."""
    try:
        with open(args.infile) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read descriptor file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return load_document(doc)[1]
    except CONSTRAINT_ERRORS as exc:
        report_constraint(exc.constraint)
        return EXIT_CONSTRAINT
    except (KeyError, ValueError) as exc:
        print(f"error: malformed document: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_transfer(args) -> int:
    payload = {"from_gso": None, "isobaric": [], "conditions": [], "places": [], "violation": None}

    def violation(name: str) -> None:
        payload["violation"] = name
        _emit(payload, args.format, args.out, _text_transfer)

    descriptors = _load_descriptors(args, violation)
    if isinstance(descriptors, int):
        return descriptors
    if len(descriptors) != 1:
        print("error: transfer expects exactly one descriptor", file=sys.stderr)
        return EXIT_USAGE
    desc = descriptors[0]
    rep = transfer(desc)
    payload["from_gso"] = desc.from_gso
    payload["isobaric"] = [sym.id for sym in rep.constituents]
    payload["conditions"] = list(transfer_conditions(desc))
    ok = True
    if desc.from_gso:
        chain = transfer_places(desc)
        payload["places"] = _Places(chain)
        if chain.mismatch is not None:
            # sampled local data of the pair has unequal central values
            violation(chain.mismatch.constraint)
            return EXIT_CONSTRAINT
        ok = bool(chain.commutes.all())
    if not ok:
        payload["violation"] = "commuting_diagram"
    _emit(payload, args.format, args.out, _text_transfer)
    return EXIT_OK if ok else EXIT_CONSTRAINT


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------


def _text_poles(payload: dict) -> str:
    lines = [f"case ({payload['case']})", f"symbolic pole order at s=1: {payload['symbolic_order']}"]
    for i, j in payload["witnesses"]:
        lines.append(f"  witness: constituent {i} of the first pairs with constituent {j} of the second")
    if payload.get("estimate") is not None:
        lines.append(
            f"numeric estimate: {payload['estimate']:.4f} "
            f"(X={payload['X']}, seed={payload['seed']})"
        )
    return "\n".join(lines) + "\n"


def _csv_poles(payload: dict) -> str:
    rows = ["s,re,im"]
    for s, (re, im) in zip(payload["sweep"]["s"], payload["sweep"]["values"]):
        rows.append(f"{s!r},{re!r},{im!r}")
    return "\n".join(rows) + "\n"


def _cmd_poles(args) -> int:
    descriptors = _load_descriptors(
        args, lambda name: print(f"constraint failed: {name}", file=sys.stderr)
    )
    if isinstance(descriptors, int):
        return descriptors
    if len(descriptors) != 2:
        print("error: poles expects a document with two descriptors", file=sys.stderr)
        return EXIT_USAGE
    analysis = jiang_case_analysis(descriptors[0], descriptors[1])
    payload = {
        "case": analysis.label,
        "symbolic_order": analysis.report.order,
        "witnesses": [list(w) for w in analysis.report.witnesses],
        "estimate": None,
        "X": args.X,
        "seed": args.seed,
        "sweep": {"s": [], "values": []},
    }
    if args.format == "csv" and args.mode == "symbolic":
        print("error: csv output needs --mode numeric or both", file=sys.stderr)
        return EXIT_USAGE
    if args.mode in ("numeric", "both"):
        try:
            reps = synthetic_reps(descriptors, args.seed, args.X)
            est, sweep = estimate_with_sweep(reps[0], reps[1], args.X)
        except (LocalPole, EstimationError, ValueError) as exc:
            print(f"error: numeric estimate failed: {exc}", file=sys.stderr)
            return EXIT_USAGE
        payload["estimate"] = est
        payload["sweep"] = {
            "s": list(sweep.s_grid),
            "values": [[v.real, v.imag] for v in sweep.values],
        }
    _emit(payload, args.format, args.out, _text_poles, _csv_poles)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rodier
# ---------------------------------------------------------------------------


def _text_rodier(payload: dict) -> str:
    lines = [
        "exponent vector: (" + ", ".join(str(e) for e in payload["exponents"]) + ")",
    ]
    v = payload["verdict"]
    if v["family"] == "not_in_list":
        lines.append("verdict: not in the exponent list (forces full induced)")
    elif v["family"] == "A":
        lines.append(f"verdict: family A with r = {v['r']}")
    else:
        lines.append(f"verdict: family {v['family']}")
    return "\n".join(lines) + "\n"


def _cmd_rodier(args) -> int:
    try:
        with open(args.params) as fh:
            doc = json.load(fh)
        param = param_from_json(doc)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot read parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(param, GL4Param):
        print("error: expected a gl4 parameter document", file=sys.stderr)
        return EXIT_USAGE
    pl = PlaceData(args.q)
    if not all(c.consistent_at(pl.q) for c in param.entries):
        print(f"error: exact forms disagree with their float values at q={pl.q}", file=sys.stderr)
        return EXIT_USAGE
    vec = exponents(param, pl)
    verdict = rodier_class(vec)
    payload = {
        "q": args.q,
        "exponents": [str(e) for e in vec.e],
        "verdict": {
            "family": verdict.family,
            "r": None if verdict.r is None else str(verdict.r),
        },
    }
    _emit(payload, args.format, args.out, _text_rodier)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsp4transfer",
        description="transfer calculus tools: group checks, lifts, pole orders",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )

    p = sub.add_parser("verify-groups", parents=[common],
                       help="exhaustive check of the degree-4 similitude presentation")
    p.add_argument("--q", type=int, required=True, help=f"odd prime in {SUPPORTED_Q}")
    p.set_defaults(func=_cmd_verify_groups)

    p = sub.add_parser("transfer", parents=[common],
                       help="run the full lifting chain from a descriptor file")
    p.add_argument("--in", dest="infile", required=True, help="descriptor JSON file")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("poles", parents=[common],
                       help="symbolic and numeric pole order for a descriptor pair")
    p.add_argument("--in", dest="infile", required=True, help="descriptor JSON file")
    p.add_argument("--mode", choices=("symbolic", "numeric", "both"), default="symbolic")
    p.add_argument("--X", type=int, default=100_000, help="truncation bound on places")
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic data")
    p.set_defaults(func=_cmd_poles)

    p = sub.add_parser("rodier", parents=[common],
                       help="exponent-pattern classification of a gl4 parameter")
    p.add_argument("--params", required=True, help="gl4 parameter JSON file")
    p.add_argument("--q", type=int, required=True, help="residue cardinality")
    p.set_defaults(func=_cmd_rodier)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
