"""Shared independent oracles and the artifact reader for the test suite.

The two-level formulas below are the exact closed forms for the minimal
(N = 1/2) junction, worked out by hand from the 2x2 matrix
[[E_C(1/2 + n_g)^2, -E_J], [-E_J, E_C(1/2 - n_g)^2]]; they stay independent
of every code path they are used to check.
"""

import json
import math
from pathlib import Path

import numpy as np

from finitejj.observables import SweepTable
from finitejj.wick import LOWER, RAISE, OperatorPoly


def _refuse_constant(name):
    raise AssertionError(f"the artifact holds {name}, which RFC 8259 forbids")


def load_json(path):
    """A JSON artifact, parsed strictly: NaN, Infinity and -Infinity are refused."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


def read_table(path, fmt: str = "csv") -> SweepTable:
    """A sweep artifact, read from ``path``, as the table that wrote it.

    CSV: one '# meta {json}' line, a header row, then one row per grid point.
    JSON: the {"meta", "grid", "columns"} object that ``cli._write_table`` writes.
    """
    if fmt == "json":
        payload = load_json(path)
        return SweepTable(grid=payload["grid"], columns=payload["columns"], meta=payload["meta"])
    meta_line, header, *rows = Path(path).read_text().splitlines()
    assert meta_line.startswith("# meta ")
    names = header.split(",")
    data = [[float(cell) for cell in row.split(",")] for row in rows if row]
    columns = {name: [row[j] for row in data] for j, name in enumerate(names)}
    return SweepTable(grid=columns.pop(names[0]), columns=columns,
                      meta=json.loads(meta_line[len("# meta "):]))


def two_level_gap(e_j: float, e_c: float, n_g: float) -> float:
    return 2.0 * math.hypot(e_c * n_g, e_j)


def two_level_imbalance(e_j: float, e_c: float, n_g: float) -> float:
    return 0.5 * e_c * n_g / math.hypot(e_c * n_g, e_j)


def two_level_susceptibility(e_j: float, e_c: float, n_g: float) -> float:
    r_sq = (e_c * n_g) ** 2 + e_j**2
    return 0.5 * e_c * e_j * e_j / r_sq**1.5


def two_level_gap_curvature(e_j: float, e_c: float, n_g: float) -> float:
    r_sq = (e_c * n_g) ** 2 + e_j**2
    return 2.0 * e_c**2 * e_j**2 / r_sq**1.5


def random_poly(rng: np.random.Generator, max_degree: int = 6, max_words: int = 5) -> OperatorPoly:
    """Random ladder polynomial with bounded degree and unit-box coefficients."""
    poly = OperatorPoly()
    for _ in range(int(rng.integers(1, max_words + 1))):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(rng.choice([RAISE, LOWER], size=length))
        coeff = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        poly = poly + OperatorPoly.from_word(word, coeff)
    return poly
