#!/usr/bin/env python3
"""Run the exhaustive star verification and print a per-genus breakdown.

Writes the full record stream to --out when given, so a long sweep can be
inspected later with nsg.read_records without recomputing.
"""

import argparse
import sys
import time
from collections import Counter

from nsg import (
    EXCEPTION_TAGS,
    NsgError,
    enumerate_records,
    summarize,
    write_records,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-genus", type=int, default=12)
    parser.add_argument("--out", help="also write records to this NDJSON path")
    args = parser.parse_args(argv)
    try:
        return _verify(args)
    except (NsgError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _verify(args) -> int:
    started = time.perf_counter()
    records = enumerate_records(args.max_genus)
    elapsed = time.perf_counter() - started
    summary = summarize(records, args.max_genus)

    ci_per_genus = Counter(r.genus for r in records if r.is_ci)
    print(f"verification up to genus {summary.bound} "
          f"({summary.total} semigroups in {elapsed:.1f}s)")
    print(f"{'genus':>6} {'count':>7} {'ci':>5}")
    for genus, count in enumerate(summary.per_genus):
        print(f"{genus:>6} {count:>7} {ci_per_genus.get(genus, 0):>5}")
    print(f"{'total':>6} {summary.total:>7} {summary.ci_count:>5}")

    print(f"\nstar failures ({len(summary.exceptions_found)}):")
    # summarize lists the failures in record order, so this is the same list
    for record in records:
        if record.exception in EXCEPTION_TAGS:
            gens = ",".join(str(a) for a in record.generators)
            print(f"  <{gens}>  margin {record.star.margin}")

    if summary.counterexamples:
        print(f"\nCOUNTEREXAMPLES ({len(summary.counterexamples)}):")
        for gens in summary.counterexamples:
            print(f"  <{','.join(str(a) for a in gens)}>")
    else:
        print("\nno counterexamples")

    if args.out:
        count = write_records(records, args.out)
        print(f"\nwrote {count} records to {args.out}")
    return 1 if summary.counterexamples else 0


if __name__ == "__main__":
    sys.exit(main())
