#!/usr/bin/env python3
"""Scan the embeddability thresholds over a range of orders and print a table.

For each order n this reports psi (all groups, catalogue orders only),
psi_plus (abelian groups) and psi_circ (the cyclic group), with obstacle
counts, e.g.:

    python scripts/psi_scan.py --max-n 16

With --json each entry also carries the survivor counts per size, so a diff of
two outputs also checks that the screen settled the same species.
"""

from __future__ import annotations

import argparse
import json
import time

from cayley_embed import groups_of_order, psi


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=16)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = []
    t0 = time.time()
    for n in range(1, args.max_n + 1):
        entry = {"n": n}
        if n <= 16:
            r = psi(n, "group")
            entry["psi"] = r.psi
            entry["psi_obstacles"] = len(r.obstacles)
            entry["psi_survivor_counts"] = r.to_json()["survivor_counts"]
            entry["groups"] = len(groups_of_order(n))
        for variant, tag in (("abelian", "psi_plus"), ("cyclic", "psi_circ")):
            r = psi(n, variant)
            entry[tag] = r.psi
            entry[f"{tag}_obstacles"] = len(r.obstacles)
            entry[f"{tag}_survivor_counts"] = r.to_json()["survivor_counts"]
        rows.append(entry)

    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(f"{'n':>3} {'psi':>4} {'#obs':>5} {'psi+':>5} {'#obs':>5} {'psi0':>5} {'#obs':>5}")
        for e in rows:
            print(
                f"{e['n']:>3} {e.get('psi', '-'):>4} {e.get('psi_obstacles', '-'):>5} "
                f"{e['psi_plus']:>5} {e['psi_plus_obstacles']:>5} "
                f"{e['psi_circ']:>5} {e['psi_circ_obstacles']:>5}"
            )
        print(f"# total {time.time() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
