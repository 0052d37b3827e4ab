#!/usr/bin/env python3
"""Run a command and check its peak resident set size against a bound.

    python scripts/peak_rss.py --max-kib N -- cmd [arg ...]

The command runs as a child with this process's stdin, stdout and stderr.
Its peak RSS, the child's ``ru_maxrss`` (KiB on Linux), is printed to
stderr as ``peak RSS <kib> KiB``, so that redirecting stdout discards the
command's output and keeps the figure.  Exit status: 0 when the command
succeeds within the bound, 1 when it fails or peaks above the bound.
"""

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run a command and bound its peak RSS")
    parser.add_argument("--max-kib", type=int, required=True, help="largest peak RSS that passes, in KiB")
    parser.add_argument("command", nargs="+", help="the command and its arguments, after --")
    args = parser.parse_args(argv)
    code = subprocess.run(args.command).returncode
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"peak RSS {kib} KiB", file=sys.stderr)
    if code != 0:
        print(f"the command exited with status {code}", file=sys.stderr)
        return 1
    if kib > args.max_kib:
        print(f"peak RSS above the {args.max_kib} KiB bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
