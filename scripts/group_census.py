#!/usr/bin/env python3
"""Census of the degree-4 orthogonal similitude groups over small fields.

Runs the exhaustive pair-map verification for each requested q and prints
a table of kernel/image/GSO sizes with timings.  Under the row of a failed
q it prints the failed checks and the report's counterexample.  The q = 7
run compares the 677 376 elements of GSO(4), the det = lambda^2 half of
the 1 354 752 of GO(4), one similitude class of 112 896 at a time, each
pulled back to the one listed SO(4); q = 11 (17.4 of 34.8 million, about
0.8 s) and q = 13 (57.2 of 114.5 million, about 2.8 s) are also supported.
"""

import argparse
import json
import time

from gsp4transfer.simgroups import SUPPORTED_Q, verify_gso_presentation


def failure_lines(report) -> list[str]:
    """The failed checks of a report and its counterexample, if it has one."""
    lines = ["    failed: " + ", ".join(name for name, passed in report.checks if not passed)]
    cx = report.counterexample
    if cx and "pair" in cx:
        lines.append(f"    counterexample ({cx['check']}): non-scalar kernel pair {cx['pair'][0]}, {cx['pair'][1]}")
    elif cx:
        lines.append(
            f"    counterexample ({cx['check']}): code {cx['code']} from {cx['side']}, "
            f"lambda {cx['lam']}, det {cx['det']}"
        )
        lines.extend(f"      {row}" for row in cx["matrix"])
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--q", type=int, nargs="+", default=[3, 5], choices=SUPPORTED_Q
    )
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args()

    header = f"{'q':>3} {'kernel':>7} {'image':>9} {'gso':>9} {'go':>9} {'so':>7} {'ok':>4} {'sec':>7}"
    print(header)
    print("-" * len(header))
    reports = []
    all_ok = True
    for q in args.q:
        t0 = time.monotonic()
        report = verify_gso_presentation(q)
        elapsed = time.monotonic() - t0
        reports.append(report.to_json() | {"seconds": round(elapsed, 2)})
        all_ok &= report.ok
        print(
            f"{q:>3} {report.kernel_size:>7} {report.image_size:>9} "
            f"{report.gso_size:>9} {report.go_size:>9} {report.so_size:>7} "
            f"{str(report.ok):>4} {elapsed:>7.2f}"
        )
        if not report.ok:
            print("\n".join(failure_lines(report)))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(reports, fh, indent=2)
        print(f"wrote {args.json_out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
