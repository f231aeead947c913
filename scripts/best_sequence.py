#!/usr/bin/env python3
"""Print the best discount sequence per procedure and pi1 of a sweep CSV.

Reads the CSV that ``onlinefdr sweep`` writes from stdin.  For each pi1 and
procedure it prints the gamma spec with the highest power, the first in input
order on a tie, with that row's power and FDR:

    python3 scripts/best_sequence.py < beta_sweep.csv
"""

import csv
import sys

best: dict[tuple[str, str], dict[str, str]] = {}
for row in csv.DictReader(sys.stdin):
    key = (row["pi1"], row["procedure"])
    if key not in best or float(row["power"]) > float(best[key]["power"]):
        best[key] = row

print("# best sequence per procedure and pi1:")
for pi1 in dict.fromkeys(p for p, _ in best):
    line = [f"pi1={pi1}"] + [
        f"{name}: {r['gamma']} power={float(r['power']):.3f} fdr={float(r['fdr']):.3f}"
        for (p, name), r in best.items()
        if p == pi1
    ]
    print("#   " + "  |  ".join(line))
