"""Byte-for-byte CLI outputs against recorded golden files.

Each golden file holds the exact stdout of one call followed by a line
``exit=<code>``; per-check ``seconds`` values are masked on both sides.
"""

import re
from pathlib import Path

import pytest

from a2webs.cli import main

GOLDEN = Path(__file__).parent / "golden"

# An n = 4 irreducible web whose boundary words carry counts of 1 and 2
# and weighted counts with more than one term.
WEB_4 = (
    "4,0,1,64,1,1,0,3,0,0,1,2,4,0,1,3,4,4,0,2,5,6,3,0,3,7,8,3,0,4,9,10,"
    "3,0,5,11,12,2,1,6,1,2,7,1,3,8,1,4,9,4,0,10,13,11,4,0,12,14,15,2,4,"
    "13,2,3,14,2,2,15"
)

CALLS = {
    "reduce_e1e2e1": ["reduce", "E1*E2*E1", "--n", "3"],
    "reduce_shifted_q": ["reduce", "(E1-1)*(E2-1)", "--n", "3", "--q"],
    "reduce_d2_q": ["reduce", "D2_1*D2_2*D2_1", "--n", "4", "--q"],
    "immanants_table_4": ["immanants", "--table", "--n", "4"],
    "decompose_4": ["decompose", "--n", "4", "--I1", "1,2", "--J1", "1,3",
                    "--I2", "3", "--J2", "2", "--I3", "4", "--J3", "4"],
    "bridge_231": ["bridge", "--n", "3", "--w", "231"],
    # deleted rows and columns with nonzero coefficients
    "bridge_4_deleted": ["bridge", "--n", "4", "--w", "21", "--I3", "1,3", "--J3", "2,4"],
    "verify_all_4": ["verify", "--suite", "all", "--n", "4", "--seed", "0"],
    # the report the benchmark's verify workload produces
    "verify_all_5": ["verify", "--suite", "all", "--n", "5", "--seed", "0"],
    "labelings_4": ["labelings", "--web", WEB_4],
    "labelings_4_q": ["labelings", "--web", WEB_4, "--q"],
    # a pinned word with two labelings of different weights
    "labelings_4_boundary": ["labelings", "--web", WEB_4, "--boundary", "1,2,3,1:1,2,3,1"],
    "labelings_4_boundary_q": ["labelings", "--web", WEB_4, "--boundary", "1,2,3,1:1,2,3,1", "--q"],
    # a zero entry, negative entries and mixed denominators
    "immanants_matrix_4": ["immanants", "--n", "4", "--matrix", str(GOLDEN / "matrix_4.json")],
    # the first network of the benchmark's network file
    "network_corollary": ["network", "--file", str(GOLDEN / "network_bench_0.json"), "--check-corollary"],
    "network_immanants": ["network", "--file", str(GOLDEN / "network_bench_0.json"), "--immanants"],
}

_SECONDS = re.compile(r'"seconds": [0-9.eE+-]+')


def run_cli(capsys, argv) -> str:
    rc = main(argv)
    out = capsys.readouterr().out
    return _SECONDS.sub('"seconds": _', out) + f"exit={rc}\n"


@pytest.mark.parametrize("name", sorted(CALLS))
def test_output_matches_golden(capsys, name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_cli(capsys, CALLS[name]) == expected
