"""bugloc benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload evaluate-tfidf --seed 1 --seconds 25 --trace 0

The run generates a seeded corpus under ``.perfbench_work/``, drives bugloc
through ``bugloc.cli.main`` in this process, checks every output against
an independent oracle and removes the corpus again. It prints the run
conditions and every metric by name and unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` the per-layer ones, from a
traced pass compared with an untraced pass of the same calls.

bugloc is imported from ``src/`` of the checkout and nowhere else; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("evaluate-tfidf", "localize-cli", "docvec")


def bugloc_source() -> Path | None:
    src = ROOT / "src"
    return src if (src / "bugloc" / "__init__.py").is_file() else None


def _print_report(result) -> None:
    print("conditions " + json.dumps(result.conditions, sort_keys=True))
    ratio = result.failed / result.attempted if result.attempted else 1.0
    printed = {**result.metrics, **result.printed_only, "failed_ratio": (ratio, "1")}
    for name, (value, unit) in printed.items():
        flag = "  (absent)" if name in result.absent else ""
        print(f"metric {name:<32} {value:>16.6f} {unit}{flag}")
    verdict = "PASS" if result.failed == 0 else "FAIL"
    print(f"oracle {verdict}: {result.failed} failure(s) in {result.attempted} attempt(s)")
    for message in result.failures[:20]:
        print(f"  failure: {message}")
    for command, by_layer in result.shares.items():
        print(f"share of {command} time: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in by_layer.items()))
    if result.absent:
        print("absent (wrapped function no longer exists): " + ", ".join(result.absent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = bugloc_source()
    if src is None:
        print(f"error: bugloc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    _print_report(result)
    print(json.dumps(result.json_line()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
