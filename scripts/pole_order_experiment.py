#!/usr/bin/env python3
"""Numeric pole-order probes for the three canonical pairings.

For each truncation bound X the script builds synthetic degree-2 data,
estimates the pole order of the simple/double/no-pole pairings, and writes
one CSV row per (case, X) plus a JSON summary keyed to the seed.  The
rounded estimate should reproduce the symbolic order in every row.
"""

import argparse
import json
import time
from pathlib import Path

from gsp4transfer.isobaric import SymbolRegistry, isobaric, pole_order_at_one
from gsp4transfer.lseries import (
    DEFAULT_MIN_PLACE,
    MAX_X,
    estimate_with_sweep,
    primes_up_to,
    sato_tate_symbol,
    write_sweep_csv,
)


def run(seed: int, bounds, out_dir: Path) -> dict:
    biggest = max(bounds)
    primes = primes_up_to(biggest)
    registry = SymbolRegistry()
    sigma = sato_tate_symbol(registry, "sigma", seed, primes)
    tau = sato_tate_symbol(registry, "tau", seed + 1, primes)
    pairings = {
        "simple": (isobaric([sigma]), isobaric([sigma])),
        "double": (isobaric([sigma, tau]), isobaric([sigma, tau])),
        "none": (isobaric([sigma]), isobaric([tau])),
    }
    rows = []
    for name, (r1, r2) in pairings.items():
        symbolic = pole_order_at_one(r1, r2).order
        for X in bounds:
            t0 = time.monotonic()
            estimate, sweep = estimate_with_sweep(r1, r2, X)
            elapsed = time.monotonic() - t0
            rows.append(
                {
                    "case": name,
                    "X": X,
                    "symbolic_order": symbolic,
                    "estimate": estimate,
                    "rounded": round(estimate),
                    "seconds": round(elapsed, 3),
                }
            )
            write_sweep_csv(out_dir / f"sweep_{name}_{X}.csv", sweep)
            print(
                f"{name:>6} X={X:>7}: symbolic={symbolic} "
                f"estimate={estimate:+.4f} ({elapsed:.2f}s)"
            )
    return {"seed": seed, "bounds": list(bounds), "rows": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument(
        "--bounds", type=int, nargs="+", default=[10_000, 50_000, 100_000]
    )
    parser.add_argument("--out-dir", default="pole_experiment_out")
    args = parser.parse_args()
    if not all(DEFAULT_MIN_PLACE < X <= MAX_X for X in args.bounds):
        parser.error(f"every bound must lie in [{DEFAULT_MIN_PLACE + 1}, {MAX_X}]")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = run(args.seed, args.bounds, out_dir)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2))

    # no field holds a comma or a quote, so plain joins make a valid CSV
    fields = list(summary["rows"][0])
    lines = [fields] + [[row[f] for f in fields] for row in summary["rows"]]
    (out_dir / "estimates.csv").write_text("".join(",".join(map(str, line)) + "\n" for line in lines))

    mismatches = [r for r in summary["rows"] if r["rounded"] != r["symbolic_order"]]
    print(f"\nsummary -> {summary_path} ({len(mismatches)} rounding mismatches)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
