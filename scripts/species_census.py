#!/usr/bin/env python3
"""Census of PLS species by size, with per-level timing and key digests.

    python scripts/species_census.py --max-size 7

Each size line ends with the SHA-256 of that level's species keys,
concatenated in order; the total line gives the SHA-256 over all levels
1..max-size in order, so two enumerations can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import time

from cayley_embed import canonical_form, enumerate_species


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-size", type=int, default=7)
    args = ap.parse_args()

    prev = 0.0
    total = hashlib.sha256()
    for m in range(1, args.max_size + 1):
        t0 = time.time()
        levels = enumerate_species(m)
        dt = time.time() - t0
        level = hashlib.sha256()
        for rep in levels[m]:
            blob = canonical_form(rep).blob
            level.update(blob)
            total.update(blob)
        print(f"size {m}: {len(levels[m]):>6} species   (+{dt:.2f} s)   sha256 {level.hexdigest()}")
        prev += dt
    print(f"total {prev:.2f} s   sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
