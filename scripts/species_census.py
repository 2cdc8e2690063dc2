#!/usr/bin/env python3
"""Census of PLS species by size, with per-level timing, key counts and digests.

    python scripts/species_census.py --max-size 7

Each size line gives the number of species keys the enumeration of that
level computed: one for each parent (a species of the size below), whose key
search also yields its symmetries, and one for each child whose added triple
has the greatest profile.  A level's parents are shared out over one forked
process per CPU, and each process's keys are added to the count, so the
counts still do not depend on the machine or its number of CPUs.  The
line ends with the SHA-256 of that level's species keys, concatenated in
order; the total line gives the SHA-256 over all levels 1..max-size in
order, so two enumerations can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import time

from cayley_embed import canonical_form, enumerate_species
from cayley_embed.pls import _LeastEncoding


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-size", type=int, default=7)
    args = ap.parse_args()

    # all levels are enumerated before any key is taken for the digests, so
    # that each level's count is what one enumerate_species call computes
    rows = []
    for m in range(1, args.max_size + 1):
        runs = _LeastEncoding.runs
        t0 = time.time()
        levels = enumerate_species(m)
        dt = time.time() - t0
        rows.append((dt, _LeastEncoding.runs - runs, len(levels[m - 1]) if m > 1 else 0))
    total = hashlib.sha256()
    for m, (dt, keys, parents) in enumerate(rows, start=1):
        level = hashlib.sha256()
        for rep in levels[m]:
            blob = canonical_form(rep).blob
            level.update(blob)
            total.update(blob)
        print(
            f"size {m}: {len(levels[m]):>6} species   (+{dt:.2f} s)   "
            f"keys {keys:>6} ({parents} parents)   sha256 {level.hexdigest()}"
        )
    print(
        f"total {sum(r[0] for r in rows):.2f} s   keys {sum(r[1] for r in rows)}   "
        f"sha256 {total.hexdigest()}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
