"""2D open-pit problem instances: blocks, parent relation, profit and smoothness.

A lattice is a set of blocks indexed 0..n-1, each sitting at an integer
(row, col) position with a signed integer profit.  Row 0 is the surface and
rows increase downward.  A block's parents are the in-lattice blocks one row
above within one column of horizontal offset; a pit profile (bitstring over
blocks, 1 = excavated) is feasible when every excavated block has all of its
parents excavated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


class InstanceError(ValueError):
    """Malformed or inconsistent instance data."""


@dataclass(frozen=True)
class Block:
    id: int
    row: int
    col: int
    profit: int


@dataclass(frozen=True)
class PitLattice:
    """Immutable problem instance: blocks plus the derived parent relation."""

    blocks: tuple[Block, ...]
    parent_lists: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        seen = {}
        for b in self.blocks:
            if (b.row, b.col) in seen:
                raise InstanceError(
                    f"duplicate position ({b.row}, {b.col}) for blocks "
                    f"{seen[(b.row, b.col)]} and {b.id}"
                )
            seen[(b.row, b.col)] = b.id
        parents = []
        for b in self.blocks:
            # Parents one row above, at most one column sideways; positions
            # outside the grid impose no constraint.
            p = [
                seen[(b.row - 1, c)]
                for c in (b.col - 1, b.col, b.col + 1)
                if (b.row - 1, c) in seen
            ]
            parents.append(tuple(sorted(p)))
        object.__setattr__(self, "parent_lists", tuple(parents))

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def profits(self) -> tuple[int, ...]:
        return tuple(b.profit for b in self.blocks)

    def pairs(self) -> list[tuple[int, int]]:
        """All (child, parent) pairs, lexicographic in (child, parent)."""
        return [
            (i, j) for i in range(self.n) for j in self.parent_lists[i]
        ]

    def rows(self) -> list[list[int]]:
        """Block ids grouped by row, shallowest first."""
        depth = max(b.row for b in self.blocks) + 1
        out: list[list[int]] = [[] for _ in range(depth)]
        for b in self.blocks:
            out[b.row].append(b.id)
        return out


def _check_length(lattice: PitLattice, z: Sequence[int]) -> None:
    if len(z) != lattice.n:
        raise ValueError(f"bitstring length {len(z)} != lattice size {lattice.n}")


def profit(lattice: PitLattice, z: Sequence[int]) -> int:
    """Total profit sum(w_i * z_i) of the excavated set, exact integer."""
    _check_length(lattice, z)
    return sum(b.profit for b, zi in zip(lattice.blocks, z) if zi)


def smoothness(lattice: PitLattice, z: Sequence[int]) -> int:
    """Number of excavated blocks' parents left unexcavated.

    Zero exactly when the excavated set is downward-closed, i.e. a feasible
    pit profile.
    """
    _check_length(lattice, z)
    return sum(
        1
        for i in range(lattice.n)
        if z[i]
        for j in lattice.parent_lists[i]
        if not z[j]
    )


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number from 1, text) of each line of an input file that holds
    more than blanks once its ``#`` comment is cut, the text stripped."""
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def parse_instance(text: str) -> PitLattice:
    """Parse the instance file format.

    Format: a header line ``rows R`` followed by R lines, one per row from the
    surface down; line r holds whitespace-separated ``col:profit`` pairs.
    ``#`` starts a comment; blank lines are ignored.
    """
    lines = list(content_lines(text.splitlines()))
    if not lines:
        raise InstanceError("empty instance: no header line")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "rows":
        raise InstanceError(f"line {lineno}: expected header 'rows R', got {header!r}")
    try:
        nrows = int(parts[1])
    except ValueError:
        raise InstanceError(f"line {lineno}: row count {parts[1]!r} is not an integer")
    if nrows < 1:
        raise InstanceError(f"line {lineno}: row count must be positive")
    if len(lines) - 1 != nrows:
        raise InstanceError(
            f"expected {nrows} row lines after the header, found {len(lines) - 1}"
        )
    blocks: list[Block] = []
    for row, (lineno, content) in enumerate(lines[1:]):
        for token in content.split():
            try:
                col_s, profit_s = token.split(":")
                col, w = int(col_s), int(profit_s)
            except ValueError:
                raise InstanceError(
                    f"line {lineno}: malformed 'col:profit' token {token!r}"
                )
            blocks.append(Block(id=len(blocks), row=row, col=col, profit=w))
    return PitLattice(blocks=tuple(blocks))


def load_instance(path) -> PitLattice:
    with open(path, encoding="ascii") as fh:
        return parse_instance(fh.read())


def make_lattice(rows: Iterable[Iterable[tuple[int, int]]]) -> PitLattice:
    """Build a lattice from per-row (col, profit) pairs, surface first."""
    blocks: list[Block] = []
    for row, entries in enumerate(rows):
        for col, w in entries:
            blocks.append(Block(id=len(blocks), row=row, col=col, profit=w))
    return PitLattice(blocks=tuple(blocks))
