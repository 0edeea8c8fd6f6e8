"""Re-record the pinned explorer rows of the explore-n4 workload.

    python3 perfbench/record_explore.py

Run it only when the explorer's results change on purpose; the rows are
the reference that explore-n4 checks every certification against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import EXPLORE_ROWS, explore_units  # noqa: E402


def main() -> int:
    rows = []
    for unit in explore_units(0):
        states, complete, breakable, fsync_rounds = unit.signature(
            unit.run()
        )
        rows.append({
            "strategy": unit.strategy,
            "cells": [list(c) for c in unit.cells],
            "states": states,
            "complete": complete,
            "breakable": breakable,
            "fsync_rounds": fsync_rounds,
        })
    body = ",\n".join(json.dumps(row) for row in rows)
    EXPLORE_ROWS.write_text(
        '{"rows": [\n' + body + "\n]}\n", encoding="utf-8"
    )
    print(f"wrote {len(rows)} rows to {EXPLORE_ROWS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
