"""Reference outputs the report command checks the implementation against.

Each golden table fixes a case, its fault rates, an input, and the expected
percentage per support value (one decimal, half away from zero). ``complete``
marks tables that list the whole support; incomplete ones only pin the listed
lines. The matrix constants pin the doubling-loop fixpoint and the
pair-projection counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .dims import Product, Range
from .matrix import Matrix


@dataclass(frozen=True)
class GoldenTable:
    key: str
    case: str
    p: float
    q: float
    input: Any
    lines: tuple[tuple[Any, float], ...]
    complete: bool = True


GOLDEN_TABLES: tuple[GoldenTable, ...] = (
    GoldenTable("mfib n=4", "mfib", 0.1, 0.0, 4, ((3, 81.0), (2, 18.0), (1, 1.0))),
    GoldenTable("mfib n=5", "mfib", 0.1, 0.0, 5,
                ((5, 65.6), (4, 21.9), (3, 10.5), (2, 1.9), (1, 0.1))),
    GoldenTable("mfibl n=5", "mfibl", 0.1, 0.0, 5,
                ((5, 72.9), (3, 16.2), (4, 8.1), (2, 2.7), (1, 0.1))),
    GoldenTable("mfib n=6", "mfib", 0.1, 0.0, 6,
                ((8, 47.8), (7, 26.6), (6, 11.8), (5, 9.8), (4, 2.7), (3, 1.1), (2, 0.2), (1, 0.0))),
    GoldenTable("mfibl n=6", "mfibl", 0.1, 0.0, 6,
                ((8, 65.6), (6, 14.6), (5, 14.6), (3, 2.4), (4, 2.4), (2, 0.4), (1, 0.0))),
    GoldenTable("msq n=0", "msq", 0.1, 0.0, 0, ((0, 100.0),)),
    GoldenTable("msq n=1", "msq", 0.1, 0.0, 1, ((1, 100.0),)),
    GoldenTable("msq n=2", "msq", 0.1, 0.0, 2, ((4, 90.0), (3, 10.0))),
    GoldenTable("msq n=3", "msq", 0.1, 0.0, 3, ((9, 81.0), (5, 10.0), (8, 9.0))),
    GoldenTable("msq n=6", "msq", 0.1, 0.0, 6,
                ((36, 59.0), (11, 10.0), (20, 9.0), (27, 8.1), (32, 7.3), (35, 6.6)), complete=False),
    GoldenTable("msql n=0", "msql", 0.1, 0.0, 0, ((0, 100.0),)),
    GoldenTable("msql n=1", "msql", 0.1, 0.0, 1, ((1, 100.0),)),
    GoldenTable("msql n=2", "msql", 0.1, 0.0, 2, ((4, 90.0), (3, 10.0))),
    GoldenTable("msql n=3", "msql", 0.1, 0.0, 3, ((9, 81.0), (5, 10.0), (8, 9.0))),
    GoldenTable("msql n=6", "msql", 0.1, 0.0, 6,
                ((36, 59.0), (11, 10.0), (20, 9.0), (27, 8.1), (32, 7.3), (35, 6.6)), complete=False),
    GoldenTable("ftwice n=4", "ftwice", 0.1, 0.0, 4,
                ((8, 65.6), (6, 29.2), (4, 4.9), (2, 0.4), (0, 0.0))),
    GoldenTable("msqlo n=5", "msqlo", 0.1, 0.0, 5, ((11, 100.0),)),
    GoldenTable("msql n=5", "msql", 0.1, 0.0, 5,
                ((25, 65.6), (9, 10.0), (16, 9.0), (21, 8.1), (24, 7.3))),
    GoldenTable("msq' n=3", "msq'", 0.1, 0.1, 3,
                ((9, 59.0), (7, 19.7), (5, 10.3), (8, 6.6), (6, 2.2), (3, 1.9), (4, 0.2), (1, 0.1), (2, 0.0))),
    GoldenTable("msql' n=3", "msql'", 0.1, 0.1, 3,
                ((9, 65.6), (5, 15.4), (7, 7.3), (8, 7.3), (3, 2.6), (4, 0.8), (6, 0.8), (1, 0.1), (2, 0.1))),
    GoldenTable("fcat abc", "fcat", 0.1, 0.0, "abc",
                (("abc", 72.9), ("ab", 8.1), ("ac", 8.1), ("bc", 8.1),
                 ("a", 0.9), ("b", 0.9), ("c", 0.9), ("", 0.1))),
    GoldenTable("fcount abc", "fcount", 0.0, 0.15, "abc",
                ((3, 61.4), (2, 32.5), (1, 5.7), (0, 0.3))),
    GoldenTable("pipeline abc", "pipeline_count_cat", 0.1, 0.15, "abc",
                ((3, 44.8), (2, 41.3), (1, 12.7), (0, 1.3))),
    GoldenTable("pipeline abc (consolidated)", "pipeline_consolidated", 0.1, 0.15, "abc",
                ((3, 44.8), (2, 41.3), (1, 12.7), (0, 1.3))),
    GoldenTable("favg [2,3]", "favg_pair", 0.15, 0.1, (2, 3),
                (((5, 2), 58.5), ((5, 1), 13.0), ((2, 2), 10.3), ((3, 2), 10.3),
                 ((2, 1), 2.3), ((3, 1), 2.3), ((0, 2), 1.8), ((5, 0), 0.7),
                 ((0, 1), 0.4), ((2, 0), 0.1), ((3, 0), 0.1), ((0, 0), 0.0))),
    GoldenTable("favg [2,3] (single fold)", "favg_split", 0.15, 0.1, (2, 3),
                (((5, 2), 58.5), ((5, 1), 13.0), ((2, 2), 10.3), ((3, 2), 10.3),
                 ((2, 1), 2.3), ((3, 1), 2.3), ((0, 2), 1.8), ((5, 0), 0.7),
                 ((0, 1), 0.4), ((2, 0), 0.1), ((3, 0), 0.1), ((0, 0), 0.0))),
)

# the doubling loop's 9x5 fixpoint at fault rate 0.1, as printed (column = input)
FIXPOINT_ROWS: tuple[tuple[str, ...], ...] = (
    ("1", "0.1", "0.01", "0.001", "0.0001"),
    ("0", "0", "0", "0", "0"),
    ("0", "0.9", "0.18", "0.027", "0.0036"),
    ("0", "0", "0", "0", "0"),
    ("0", "0", "0.81", "0.243", "0.0486"),
    ("0", "0", "0", "0", "0"),
    ("0", "0", "0", "0.729", "0.2916"),
    ("0", "0", "0", "0", "0"),
    ("0", "0", "0", "0", "0.6561"),
)

# the pair-valued matrix k : 3 -> 2x3 that is NOT recoverable from its projections
COUNTEREXAMPLE_K_ROWS: tuple[tuple[float, ...], ...] = (
    (0.0, 0.4, 0.2),
    (0.2, 0.0, 0.17),
    (0.2, 0.1, 0.13),
    (0.6, 0.4, 0.2),
    (0.0, 0.0, 0.17),
    (0.0, 0.1, 0.13),
)

# first column of the (failed) reconstruction of k from its projections
RECONSTRUCTION_COL0: tuple[float, ...] = (0.24, 0.08, 0.08, 0.36, 0.12, 0.12)

# the two pair-projection factors at input 2, and their pairing
F_AT_2: tuple[tuple[int, float], ...] = ((2, 0.7), (1, 0.3))
G_AT_2: tuple[tuple[int, float], ...] = ((1, 0.4), (2, 0.2), (3, 0.4))
PAIR_AT_2: tuple[tuple[tuple[int, int], float], ...] = (
    ((2, 1), 28.0), ((2, 3), 28.0), ((2, 2), 14.0),
    ((1, 1), 12.0), ((1, 3), 12.0), ((1, 2), 6.0),
)


def counterexample_matrix() -> Matrix:
    return Matrix(Range(3), Product(Range(2), Range(3)), np.array(COUNTEREXAMPLE_K_ROWS))
