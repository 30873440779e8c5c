"""Record the Tweedie p > 2 regression-guard values into golden.json.

    PYTHONPATH=src python3 benchmarks/record_golden.py

Run once, at the commit that introduced the benchmark; the values then
stay fixed so that later changes to the series are compared with them.
"""

import json
import sys

from dispmodels import tweedie

import oracles
from workloads import GUARD_CDF, GUARD_TABLE, _parse_table, guard_points, run_cli


def main() -> int:
    table = run_cli(GUARD_TABLE)
    if table.code != 0:
        print(table.stderr, file=sys.stderr)
        return 1
    golden = {
        "density": [tweedie.tweedie_density(*point) for point in guard_points()],
        "cdf": tweedie.tweedie_cdf(*GUARD_CDF),
        "table": _parse_table(table.stdout),
    }
    with open(oracles.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
