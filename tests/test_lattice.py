"""Lattice parsing, parent derivation, and the profit/smoothness functions."""

import pytest
from hypothesis import given, strategies as st

from pitvqe import bundled_instance_path
from pitvqe.lattice import (
    InstanceError,
    PitLattice,
    load_instance,
    make_lattice,
    parse_instance,
    profit,
    smoothness,
)

MINI4 = """\
rows 2
0:-1 1:2 2:-1
1:5
"""


def test_parse_mini4_layout():
    lat = parse_instance(MINI4)
    assert lat.n == 4
    assert lat.profits == (-1, 2, -1, 5)
    assert lat.parent_lists == ((), (), (), (0, 1, 2))


def test_parse_ignores_comments_and_blanks():
    text = "# header comment\nrows 1\n\n0:3 1:-2  # trailing\n"
    lat = parse_instance(text)
    assert lat.profits == (3, -2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceError, match="line 1"):
        parse_instance("cols 2\n0:1\n0:1\n")
    with pytest.raises(InstanceError, match="line 2"):
        parse_instance("rows 1\n0:one\n")
    with pytest.raises(InstanceError, match="expected 2 row lines"):
        parse_instance("rows 2\n0:1\n")
    with pytest.raises(InstanceError, match="empty"):
        parse_instance("# nothing\n")


def test_duplicate_position_rejected():
    with pytest.raises(InstanceError, match="duplicate position"):
        parse_instance("rows 1\n0:1 0:2\n")


def test_parents_skip_missing_grid_positions():
    # staircase: the lone deep block rests on a single shoulder block
    lat = make_lattice([[(2, 5), (3, -1)], [(1, 7)]])
    assert lat.parent_lists == ((), (), (0,))


def test_off_grid_parents_unconstrained():
    lat = load_instance(bundled_instance_path("stringer12"))
    # every block of the diagonal chain has exactly one in-grid parent
    assert lat.parent_lists[0] == ()
    assert all(lat.parent_lists[i] == (i - 1,) for i in range(1, lat.n))


def test_profit_and_smoothness_frozen_values():
    lat = parse_instance(MINI4)
    assert profit(lat, (1, 1, 1, 1)) == 5
    assert profit(lat, (0, 1, 0, 0)) == 2
    # deep block dug with no parents dug: all three pairs violated
    assert smoothness(lat, (0, 0, 0, 1)) == 3
    assert smoothness(lat, (1, 1, 0, 1)) == 1
    assert smoothness(lat, (1, 1, 1, 1)) == 0


def test_length_mismatch_raises():
    lat = parse_instance(MINI4)
    with pytest.raises(ValueError, match="length"):
        profit(lat, (1, 0))
    with pytest.raises(ValueError, match="length"):
        smoothness(lat, (1,) * 5)


def test_pairs_lexicographic():
    lat = load_instance(bundled_instance_path("step9"))
    pairs = lat.pairs()
    assert pairs == sorted(pairs)
    assert all(lat.blocks[c].row == lat.blocks[p].row + 1 for c, p in pairs)


@st.composite
def lattices_and_bits(draw):
    nrows = draw(st.integers(1, 3))
    rows = []
    for r in range(nrows):
        ncols = draw(st.integers(1, 3))
        rows.append([(c, draw(st.integers(-5, 5))) for c in range(ncols)])
    lat = make_lattice(rows)
    z = draw(st.lists(st.integers(0, 1), min_size=lat.n, max_size=lat.n))
    return lat, tuple(z)


@given(lattices_and_bits())
def test_smoothness_bounds(lat_z):
    lat, z = lat_z
    s = smoothness(lat, z)
    assert 0 <= s <= sum(len(p) for p in lat.parent_lists)


@given(lattices_and_bits())
def test_downward_closed_profiles_are_smooth(lat_z):
    lat, z = lat_z
    closed = list(z)
    # close the profile under the parent relation, then S must vanish
    for _ in range(lat.n):
        for i in range(lat.n):
            if closed[i]:
                for j in lat.parent_lists[i]:
                    closed[j] = 1
    assert smoothness(lat, closed) == 0


def test_rows_grouping():
    lat = load_instance(bundled_instance_path("smooth12"))
    rows = lat.rows()
    assert [len(r) for r in rows] == [5, 4, 3]
    assert rows[0] == [0, 1, 2, 3, 4]
