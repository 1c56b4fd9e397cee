"""The scale table: the dam-vgm and dam-unconfined presets on the 1900,
5500, 6400 and triangular:64x64 grids, each swept over the twelve
default entries at the default configs, pinned in
data/scale_defaults.csv with the columns of the matrix tables. It
takes about 46 s, 38 of them in failed runs, so it runs as its own CI
step, outside Tier-1:

    PYTHONPATH=src python -m pytest -q tests/check_scale_table.py

To rewrite the table from the code as it stands:

    PYTHONPATH=src:tests python tests/check_scale_table.py \\
        > tests/data/scale_defaults.csv
"""

import csv
import sys

from test_matrix import check_table, table_rows

PRESETS = ("dam-vgm", "dam-unconfined")
MESHES = ("1900", "5500", "6400", "triangular:64x64")
HEADER = ["preset", "mesh", "scheme", "solver", "kind", "outcome", "final_q",
          "cont_success", "cont_failed", "total_iters"]


def test_scale_defaults_match_table():
    check_table("scale_defaults.csv", presets=PRESETS, meshes=MESHES)


if __name__ == "__main__":
    csv.writer(sys.stdout, lineterminator="\n").writerows(
        [HEADER, *table_rows(presets=PRESETS, meshes=MESHES)])
