"""Command-line surface: group verification, transfers, poles, exponents.

One binary with subcommands.  Every command builds a JSON payload first
and derives any text rendering from it, so the two formats cannot drift.
Exit codes are a stable contract: 0 success, 1 a named constraint of the
calculus fails on valid input, 2 usage or input errors.  A command returns
its payload and exit code or raises; ``main`` alone renders and writes the
payload and turns an error into exit code 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

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
from .lseries import DEFAULT_X, EstimationError, LocalPole, estimate_with_sweep, sweep_csv_text, synthetic_reps
from .satake import (
    CentralCharMismatch,
    check_place,
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
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline; the
    entries of a ``PlaceChain`` under ``places`` are written by ``_place_rows``.
    Top-level keys are the only lines that start with two spaces and a quote."""
    chain = payload.get("places")
    if not isinstance(chain, PlaceChain):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    text = json.dumps({**payload, "places": []}, indent=2, sort_keys=True) + "\n"
    if not len(chain.qs):
        return text
    head, _, tail = text.partition('\n  "places": []')
    return _place_rows(chain, head + '\n  "places": [\n', "\n  ]" + tail)


class UsageError(ValueError):
    """A usage or input error; ``main`` prints its message after ``error: `` and exits 2."""


def _read_json(path: str, what: str, parse=None, faults: tuple = (json.JSONDecodeError,)):
    """``parse`` of the UTF-8 JSON document at ``path`` (the document itself
    when ``parse`` is None).  An unreadable file, bytes that are not UTF-8, a
    document nested too deep to decode, or one of ``faults`` raised by
    decoding or ``parse`` is a ``UsageError``: "cannot read <what>: ..."."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc if parse is None else parse(doc)
    except (OSError, UnicodeDecodeError, RecursionError, *faults) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from None


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


def _cmd_verify_groups(args) -> tuple[dict, int]:
    report = verify_gso_presentation(args.q)
    return report.to_json(), EXIT_OK if report.ok else EXIT_CONSTRAINT


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
def _place_template() -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The JSON text of one ``places`` entry, at its depth in the payload, cut
    at its values: the literal pieces between them, and the flat value
    (argument of ``_place_doc``) each gap between two pieces shows.

    It is read off the encoder: ``json.dumps(..., indent=2, sort_keys=True)``
    of an entry whose values are the markers "@0", "@1", ..., so the layout
    cannot drift from ``json.dumps`` of the entry itself.
    """
    text = json.dumps(_place_doc(*(f"@{k}" for k in range(30))), indent=2, sort_keys=True)
    text = "    " + text.replace("\n", "\n    ")
    return tuple(re.split(r'"@\d+"', text)), tuple(int(k) for k in re.findall(r'"@(\d+)"', text))


# Column of a row's distinct values (alpha_1, beta_1, mu_1, alpha_2, beta_2,
# mu_2) for each GL(2) slot (alpha_1, beta_1, alpha_2, beta_2).
_GL2_COLUMNS = np.array([0, 1, 3, 4])


def _place_rows(chain: PlaceChain, head: str, tail: str) -> str:
    """``head``, the JSON entries of a chain's places joined by ",\n", and
    ``tail``, as one ``str.join`` over a vocabulary of texts: the template's
    pieces, the q texts, "true" and "false", and each row's 12 distinct floats
    rendered once (every GSp(4) and GL(4) entry is a slot of a GL(2) entry)."""
    pieces, slots = _place_template()
    n, last = len(chain.qs), len(pieces) - 1
    distinct = np.concatenate([chain.gl2[:, 0], chain.mu[:, :1], chain.gl2[:, 1], chain.mu[:, 1:]], axis=1)
    # the vocabulary: pieces[:last], head + pieces[0], pieces[last] + ",\n",
    # pieces[last] + tail, "true", "false", then the q texts and the floats,
    # which JSON renders with int.__repr__ and float.__repr__
    vocab = [*pieces[:last], head + pieces[0], pieces[last] + ",\n", pieces[last] + tail, "true", "false",
             *map(int.__repr__, chain.qs.tolist()),
             *map(float.__repr__, distinct.view(float).ravel().tolist())]
    q0 = last + 5  # index of the first q text; the floats follow the n q texts
    rows = np.arange(n)[:, None]
    # the distinct value each of a row's 14 complex values shows
    columns = np.concatenate([np.broadcast_to(np.arange(6), (n, 6)), _GL2_COLUMNS[chain.gsp4],
                              _GL2_COLUMNS[chain.gl4]], axis=1)
    values = np.empty((n, 30), dtype=np.intp)  # vocabulary index of each argument of _place_doc
    values[:, :1] = q0 + rows
    values[:, 1] = last + 4 - chain.commutes
    values[:, 2:] = q0 + n + 12 * rows + (2 * columns[:, :, None] + np.arange(2)).reshape(n, 28)
    words = np.empty((n, 2 * last + 1), dtype=np.intp)
    words[:, 0::2] = np.arange(last + 1)
    words[:, 1::2] = values[:, slots]
    words[0, 0], words[:, -1], words[-1, -1] = last, last + 1, last + 2
    return "".join(np.fromiter(vocab, dtype=object, count=len(vocab)).take(words.ravel()).tolist())


def _text_transfer(payload: dict) -> str:
    lines = ["transfer chain"]
    if payload["from_gso"] is not None:
        lines.append(f"  lifted from degree-2 pair: {payload['from_gso']}")
    if payload["isobaric"]:
        lines.append(f"  isobaric transfer: {' + '.join(payload['isobaric'])}")
    for cond in payload["conditions"]:
        lines.append(f"  recorded: {cond}")
    chain = payload["places"]
    for q, commutes in zip(chain.qs.tolist(), chain.commutes.tolist()) if chain else ():
        lines.append(f"  q={q}: gl2 x gl2 -> gsp4 -> gl4, diagram {'commutes' if commutes else 'FAILS'}")
    if payload["violation"]:
        lines.append(f"constraint failed: {payload['violation']}")
    else:
        lines.append("consistency OK")
    return "\n".join(lines) + "\n"


def _descriptors(args, count: int, expects: str) -> list:
    """The ``count`` descriptors of the ``--in`` document.  A named constraint
    of the document propagates as its exception; any other fault of the file
    or the document raises ``UsageError``, "<command> expects <expects>" when
    only the number of descriptors is wrong."""
    doc = _read_json(args.infile, "descriptor file")
    try:
        descriptors = load_document(doc)[1]
    except CONSTRAINT_ERRORS:
        raise
    except (KeyError, ValueError) as exc:
        raise UsageError(f"malformed document: {exc}") from None
    if len(descriptors) != count:
        raise UsageError(f"{args.command} expects {expects}")
    return descriptors


def _recorded(exc: ValueError) -> list[str]:
    """The shape lemma's reason for refusing a document's twists, as a list
    of one entry; empty for any other constraint error."""
    return [exc.reason] if isinstance(exc, NotUnitaryNormalized) and exc.reason else []


def _cmd_transfer(args) -> tuple[dict, int]:
    payload = {"from_gso": None, "isobaric": [], "conditions": [], "places": [], "violation": None}
    try:
        (desc,) = _descriptors(args, 1, "exactly one descriptor")
    except CONSTRAINT_ERRORS as exc:
        payload["conditions"] = _recorded(exc)
        payload["violation"] = exc.constraint
        return payload, EXIT_CONSTRAINT
    rep = transfer(desc)
    payload["from_gso"] = desc.from_gso
    payload["isobaric"] = [sym.id for sym in rep.constituents]
    payload["conditions"] = list(transfer_conditions(desc))
    if desc.from_gso:
        chain = transfer_places(desc)
        payload["places"] = chain
        if chain.mismatch is not None:
            # sampled local data of the pair has unequal central values
            payload["violation"] = chain.mismatch.constraint
        elif not chain.commutes.all():
            payload["violation"] = "commuting_diagram"
    return payload, EXIT_CONSTRAINT if payload["violation"] else EXIT_OK


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
    sweep = payload["sweep"]
    return sweep_csv_text((s, real, imag) for s, (real, imag) in zip(sweep["s"], sweep["values"]))


def _cmd_poles(args) -> tuple[dict | None, int]:
    try:
        descriptors = _descriptors(args, 2, "a document with two descriptors")
    except CONSTRAINT_ERRORS as exc:
        for reason in _recorded(exc):
            print(f"  recorded: {reason}", file=sys.stderr)
        print(f"constraint failed: {exc.constraint}", file=sys.stderr)
        return None, EXIT_CONSTRAINT
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
    if args.mode in ("numeric", "both"):
        try:
            reps = synthetic_reps(descriptors, args.seed, args.X)
            est, sweep = estimate_with_sweep(reps[0], reps[1], args.X)
        except (LocalPole, EstimationError, ValueError) as exc:
            raise UsageError(f"numeric estimate failed: {exc}") from None
        payload["estimate"] = est
        payload["sweep"] = {
            "s": list(sweep.s_grid),
            "values": [[v.real, v.imag] for v in sweep.values],
        }
    return payload, EXIT_OK


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


def _cmd_rodier(args) -> tuple[dict, int]:
    param = _read_json(args.params, "parameters", param_from_json, (KeyError, ValueError))
    q = check_place(args.q)
    if not all(c.consistent_at(q) for c in param.entries):
        raise UsageError(f"exact forms disagree with their float values at q={q}")
    vec = exponents(param, q)
    verdict = rodier_class(vec)
    payload = {
        "q": args.q,
        "exponents": [str(e) for e in vec.e],
        "verdict": {
            "family": verdict.family,
            "r": None if verdict.r is None else str(verdict.r),
        },
    }
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
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
    p.set_defaults(func=_cmd_verify_groups, render={"text": _text_verify_groups})

    p = sub.add_parser("transfer", parents=[common],
                       help="run the full lifting chain from a descriptor file")
    p.add_argument("--in", dest="infile", required=True, help="descriptor JSON file")
    p.set_defaults(func=_cmd_transfer, render={"text": _text_transfer})

    p = sub.add_parser("poles", parents=[common],
                       help="symbolic and numeric pole order for a descriptor pair")
    p.add_argument("--in", dest="infile", required=True, help="descriptor JSON file")
    p.add_argument("--mode", choices=("symbolic", "numeric", "both"), default="symbolic")
    p.add_argument("--X", type=int, default=DEFAULT_X, help="truncation bound on places")
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic data")
    p.set_defaults(func=_cmd_poles, render={"text": _text_poles, "csv": _csv_poles})

    p = sub.add_parser("rodier", parents=[common],
                       help="exponent-pattern classification of a gl4 parameter")
    p.add_argument("--params", required=True, help="gl4 parameter JSON file")
    p.add_argument("--q", type=int, required=True, help="residue cardinality")
    p.set_defaults(func=_cmd_rodier, render={"text": _text_rodier})
    return parser


def main(argv=None) -> int:
    """Run one command.  A ``--format`` the command cannot render is refused
    first, before the command runs, and so is ``poles --format csv`` with
    ``--mode symbolic``, which has no sweep to render.  The command returns
    its payload (None when nothing goes to stdout) and exit code, or raises
    ``ValueError``; here alone the payload is rendered and written, and an
    error becomes ``error: ...`` on stderr with exit code 2."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        render = {"json": _json_text, **args.render}.get(args.format)
        if render is None:
            raise UsageError(f"{args.format} format is not available for this command")
        if args.format == "csv" and getattr(args, "mode", None) == "symbolic":
            raise UsageError("csv output needs --mode numeric or both")
        payload, code = args.func(args)
        if payload is not None:
            text = render(payload)
            try:
                if args.out:
                    with open(args.out, "w", encoding="utf-8") as fh:
                        fh.write(text)
                elif hasattr(sys.stdout, "buffer"):
                    # UTF-8 whatever the locale, as --out
                    sys.stdout.flush()
                    sys.stdout.buffer.write(text.encode("utf-8"))
                else:
                    sys.stdout.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write output: {exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
