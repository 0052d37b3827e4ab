"""Spans around the package's public calls, and the per-layer metrics.

Tracing is installed from outside: each listed attribute is replaced, for
the duration of a traced pass, by a wrapper that records a span, then
restored.  Nothing inside the package is changed.  A name a later version
no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import bisect
import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager

from timing import Tracer
from workloads import PRIMES

LAYERS = ("op", "cli", "isobaric", "satake", "lseries", "simgroups")


def _q(args, kwargs, result):
    return {"q": int(args[0] if args else kwargs["q"])}


def _go4(args, kwargs, result):
    return {"q": int(args[0]), "elements": int(len(result[0])),
            "bytes": int(sum(a.nbytes for a in result))}


def _local_factors(args, kwargs, result):
    """places x sum(m * k) x grid points of one estimate_with_sweep call."""
    from gsp4transfer import lseries

    r1, r2 = args[0], args[1]
    X = args[2] if len(args) > 2 else kwargs.get("X", lseries.DEFAULT_X)
    grid = args[3] if len(args) > 3 and args[3] is not None else kwargs.get("grid") or lseries.DEFAULT_GRID
    floor = kwargs.get("min_place", lseries.DEFAULT_MIN_PLACE)
    places = bisect.bisect_right(PRIMES, X) - bisect.bisect_right(PRIMES, floor)
    return {"local_factors": places * r1.degree * r2.degree * len(grid)}


# (module, attribute, attrs).  The same function may be reached through the
# CLI's namespace and through its own module; both references are wrapped.
TRACED = (
    ("gsp4transfer.cli", "main", None),
    ("gsp4transfer.cli", "verify_gso_presentation", _q),
    ("gsp4transfer.simgroups", "enumerate_go4_codes", _go4),
    ("gsp4transfer.cli", "load_document", None),
    ("gsp4transfer.isobaric", "registry_from_json", None),
    ("gsp4transfer.cli", "transfer", None),
    ("gsp4transfer.cli", "jiang_case_analysis", None),
    ("gsp4transfer.cli", "sample_sato_tate", None),
    ("gsp4transfer.lseries", "sample_sato_tate", None),
    ("gsp4transfer.cli", "estimate_with_sweep", _local_factors),
    ("gsp4transfer.lseries", "estimate_with_sweep", _local_factors),
    ("gsp4transfer.lseries", "partial_L", None),
    ("gsp4transfer.lseries", "delta_eigenvalues", None),
    ("gsp4transfer.lseries", "eigen_symbol", None),
    ("gsp4transfer.lseries", "sato_tate_symbol", None),
    ("gsp4transfer.cli", "theta_lift_params", None),
    ("gsp4transfer.cli", "gsp4_to_gl4_embed", None),
    ("gsp4transfer.cli", "transfer_gsp4_to_gl4", None),
    ("gsp4transfer.cli", "match_multisets", None),
    ("gsp4transfer.cli", "param_to_json", None),
    ("gsp4transfer.cli", "param_from_json", None),
    ("gsp4transfer.cli", "exponents", None),
    ("gsp4transfer.cli", "rodier_class", None),
)
TRACED_METHODS = (("gsp4transfer.isobaric", "SymbolRegistry", "create"),)

CHAIN = ("satake.theta_lift_params", "satake.gsp4_to_gl4_embed",
         "satake.transfer_gsp4_to_gl4", "satake.match_multisets")
RODIER = ("satake.param_from_json", "satake.exponents", "satake.rodier_class")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every listed call in a span for the duration of the block."""
    saved = []
    for modname, attr, attrs in TRACED:
        owner = importlib.import_module(modname)
        fn = getattr(owner, attr, None)
        if callable(fn):
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, span_name(fn), attrs))
    for modname, cls, attr in TRACED_METHODS:
        owner = getattr(importlib.import_module(modname), cls, None)
        fn = getattr(owner, attr, None)
        if callable(fn):
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, span_name(fn)))
    try:
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


PER_LAYER_UNITS = {
    "simgroups.enumerate_go4_codes_s.q5": "ref_s",
    "simgroups.enumerate_go4_codes_s.q7": "ref_s",
    "simgroups.verify_gso_presentation_s.q5": "ref_s",
    "simgroups.verify_gso_presentation_s.q7": "ref_s",
    "simgroups.pair_map_and_compare_s.q7": "ref_s",
    "simgroups.go4_elements_per_s.q7": "1/ref_s",
    "simgroups.pairs.q7": "count",
    "simgroups.code_bytes.q7": "bytes_computed",
    "lseries.sample_sato_tate_s": "ref_s",
    "lseries.estimate_with_sweep_s": "ref_s",
    "lseries.local_factors": "count",
    "lseries.local_factors_per_s": "1/ref_s",
    "lseries.partial_L_complex_s": "ref_s",
    "lseries.delta_eigenvalues_s": "ref_s",
    "isobaric.registry_create_s": "ref_s",
    "isobaric.jiang_case_analysis_s": "ref_s",
    "isobaric.load_document_us_per_place": "ref_us",
    "satake.chain_us_per_place": "ref_us",
    "satake.param_to_json_us_per_place": "ref_us",
    "satake.rodier_ms": "ref_ms",
    "cli.self_ms_p50": "ref_ms",
    **{f"layer_self_s.{layer}": "ref_s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "ref_s",
}


def _gl2_order(q: int) -> int:
    return (q * q - 1) * (q * q - q)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[list], own: list[float], ops: dict[int, object]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans`` are the pass's rows, ``own`` the self time of every span of
    the run (indexed by span id) and ``ops`` maps an op id to its Op.
    """
    total = defaultdict(float)        # span name -> summed duration
    count = defaultdict(int)          # span name -> calls
    by_q = defaultdict(float)         # (span name, q) -> duration
    attrs_sum = defaultdict(float)    # (attribute, q or None) -> summed value
    per_op = defaultdict(lambda: defaultdict(float))  # op id -> name -> duration
    layer_self = defaultdict(float)
    cli_self = []
    for row in spans:
        sid, _, op, name, start, end, attrs = row
        dur = end - start
        total[name] += dur
        count[name] += 1
        per_op[op][name] += dur
        layer_self[name.split(".", 1)[0]] += own[sid]
        if name == "cli.main":
            cli_self.append(own[sid])
        if attrs:
            if "q" in attrs:
                by_q[(name, attrs["q"])] += dur
            for key in ("elements", "bytes", "local_factors"):
                if key in attrs:
                    attrs_sum[(key, attrs.get("q"))] += attrs[key]

    enum7 = by_q[("simgroups.enumerate_go4_codes", 7)]
    pairs7 = _gl2_order(7) ** 2 if by_q[("simgroups.verify_gso_presentation", 7)] else 0
    places_loaded = sum(ops[op].places for op, names in per_op.items()
                        if "isobaric.load_document" in names)
    load_time = sum(names["isobaric.load_document"] for op, names in per_op.items()
                    if ops[op].places and "isobaric.load_document" in names)
    chain_places = count["satake.theta_lift_params"]
    rodier_ms = [1e3 * sum(names[n] for n in RODIER)
                 for op, names in per_op.items() if ops[op].kind == "rodier" and names[RODIER[0]]]
    factors = attrs_sum[("local_factors", None)]
    m = {
        "simgroups.enumerate_go4_codes_s.q5": by_q[("simgroups.enumerate_go4_codes", 5)],
        "simgroups.enumerate_go4_codes_s.q7": enum7,
        "simgroups.verify_gso_presentation_s.q5": by_q[("simgroups.verify_gso_presentation", 5)],
        "simgroups.verify_gso_presentation_s.q7": by_q[("simgroups.verify_gso_presentation", 7)],
        "simgroups.pair_map_and_compare_s.q7":
            by_q[("simgroups.verify_gso_presentation", 7)] - enum7,
        "simgroups.go4_elements_per_s.q7": _ratio(attrs_sum[("elements", 7)], enum7),
        "simgroups.pairs.q7": pairs7,
        # computed, not measured: int64 pair-map codes and lambdas plus the
        # GO(4) code, lambda and determinant arrays returned by the enumeration
        "simgroups.code_bytes.q7": 2 * 8 * pairs7 + attrs_sum[("bytes", 7)],
        "lseries.sample_sato_tate_s": total["lseries.sample_sato_tate"],
        "lseries.estimate_with_sweep_s": total["lseries.estimate_with_sweep"],
        "lseries.local_factors": factors,
        "lseries.local_factors_per_s": _ratio(factors, total["lseries.estimate_with_sweep"]),
        "lseries.partial_L_complex_s": total["lseries.partial_L"],
        "lseries.delta_eigenvalues_s": total["lseries.delta_eigenvalues"],
        "isobaric.registry_create_s": total["isobaric.SymbolRegistry.create"],
        "isobaric.jiang_case_analysis_s": total["isobaric.jiang_case_analysis"],
        "isobaric.load_document_us_per_place": 1e6 * _ratio(load_time, places_loaded),
        "satake.chain_us_per_place": 1e6 * _ratio(sum(total[n] for n in CHAIN), chain_places),
        "satake.param_to_json_us_per_place":
            1e6 * _ratio(total["satake.param_to_json"], chain_places),
        "satake.rodier_ms": statistics.median(rodier_ms) if rodier_ms else 0.0,
        "cli.self_ms_p50": 1e3 * statistics.median(cli_self) if cli_self else 0.0,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"layer_self_s.{layer}"] = layer_self[layer]
    return m
