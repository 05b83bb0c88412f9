"""Fixed reference work that measures how fast the host is right now.

``run.py`` times this script beside every CLI run and scales the CLI's times
by it, so that a host that is busier for a while does not read as a slower
program. It does not import skelcal, and its work never changes: a fresh
interpreter imports numpy, then parses, builds, collects and formats 50,000
capture-like rows in pure Python, the same mix of work the CLI does.
"""

import gc
import math
from dataclasses import dataclass

import numpy as np

ROWS = 50_000


@dataclass(frozen=True)
class Row:
    x: float
    y: float
    z: float


def main() -> None:
    lines = [
        f"{k // 25},{k % 25},{math.sin(k * 1e-3):.9f},{math.cos(k * 1e-3):.9f},{k * 1e-4:.9f}"
        for k in range(ROWS)
    ]
    rows = [Row(*(float(v) for v in line.split(",")[2:])) for line in lines]
    shifted = tuple(Row(r.x, r.y + r.z * 0.1, r.z) for r in rows)
    gc.collect()
    text = "\n".join(f"{r.x:.9f},{r.y:.9f},{r.z:.9f}" for r in shifted)
    if len(text) < ROWS or not np.isfinite(np.array([r.y for r in shifted])).all():
        raise SystemExit("reference work produced a wrong result")


if __name__ == "__main__":
    main()
