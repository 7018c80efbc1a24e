"""The benchmark's own exact arithmetic on models, independent of laminal.

Models are handled as rows of ``Fraction`` and scaled to integers over a
common denominator, so a block is parameter-free exactly when its integer
sums agree across rows.  The generator uses these helpers to shape inputs
and the oracles use them to re-check reported partitions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def model_text(name: str, thetas, samples, rows) -> str:
    """Render a model in laminal's line format."""
    lines = [f"model {name}", "thetas " + " ".join(thetas), "samples " + " ".join(samples)]
    for lab, row in zip(thetas, rows):
        lines.append(lab + " " + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def content_key(text: str) -> str:
    """Model text without its name line: what model equality depends on."""
    return text.split("\n", 1)[1]


def parse_text(text: str):
    """(theta labels, sample labels, Fraction rows) of a model text."""
    lines = text.strip().splitlines()
    thetas = lines[1].split()[1:]
    samples = lines[2].split()[1:]
    by_label = {}
    for line in lines[3:]:
        toks = line.split()
        by_label[toks[0]] = [Fraction(t) for t in toks[1:]]
    return thetas, samples, [by_label[t] for t in thetas]


def integer_rows(rows) -> list[list[int]]:
    """Rows scaled by the LCM of all denominators."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return [[int(v * den) for v in row] for row in rows]


def normalised_rows(int_rows) -> list[list[Fraction]]:
    """Each row of positive integers divided by its own sum."""
    return [[Fraction(v, sum(row)) for v in row] for row in int_rows]


def block_is_free(irows, block) -> bool:
    """True when every row gives ``block`` the same integer mass."""
    first = sum(irows[0][j] for j in block)
    return all(sum(row[j] for j in block) == first for row in irows[1:])


def partition_is_free(irows, blocks) -> bool:
    return all(block_is_free(irows, b) for b in blocks)


def proportional_classes(irows) -> list[list[int]]:
    """Classes of sample points with proportional columns (the mss blocks)."""
    n = len(irows[0])
    classes: list[list[int]] = []
    for j in range(n):
        for cls in classes:
            r = cls[0]
            if all(irows[s][j] * irows[t][r] == irows[t][j] * irows[s][r]
                   for s in range(len(irows)) for t in range(len(irows))):
                cls.append(j)
                break
        else:
            classes.append([j])
    return classes


def count_free_coarsenings(irows, base) -> int:
    """Number of parameter-free partitions that coarsen ``base``.

    Counts set partitions of the base blocks whose merged blocks all have
    parameter-free mass, by branching on the lowest uncovered base block.
    """
    k = len(base)
    free = [False] * (1 << k)
    for mask in range(1, 1 << k):
        pts = [j for i in range(k) if mask >> i & 1 for j in base[i]]
        free[mask] = block_is_free(irows, pts)

    def count(rest: int) -> int:
        if not rest:
            return 1
        low = rest & -rest
        others = rest ^ low
        total = 0
        sub = others
        while True:
            if free[sub | low]:
                total += count(others ^ sub)
            if not sub:
                break
            sub = (sub - 1) & others
        return total

    return count((1 << k) - 1)
