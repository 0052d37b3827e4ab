#!/usr/bin/env python3
"""Census of the degree-4 orthogonal similitude groups over small fields.

Runs the exhaustive pair-map verification for each requested q and prints
a table of kernel/image/GSO sizes with timings.  The q = 7 run enumerates
about 1.35 million group elements.
"""

import argparse
import json
import time

from gsp4transfer.simgroups import SUPPORTED_Q, verify_gso_presentation


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
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(reports, fh, indent=2)
        print(f"wrote {args.json_out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
