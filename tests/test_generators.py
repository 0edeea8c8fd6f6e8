"""Unit tests for swarm generators, validation, serialization."""

import pytest

from repro.grid.connectivity import is_connected
from repro.swarms import (
    FAMILIES,
    comb,
    diamond_ring,
    double_donut,
    ensure_connected,
    family,
    from_json,
    from_text,
    h_shape,
    l_corridor,
    line,
    normalize,
    plus_shape,
    random_blob,
    random_tree,
    ring,
    solid_rectangle,
    spiral,
    staircase,
    staircase_corridor,
    to_json,
    to_text,
)


class TestGeneratorsConnectivity:
    @pytest.mark.parametrize(
        "cells",
        [
            line(17),
            solid_rectangle(7, 4),
            ring(9),
            ring(9, thickness=2),
            plus_shape(6),
            plus_shape(5, width=3),
            h_shape(9, 5),
            staircase(12),
            staircase_corridor(8, run=3),
            diamond_ring(8),
            spiral(6),
            comb(5, 7),
            l_corridor(8, 2),
            double_donut(14),
            random_blob(200, 7),
            random_tree(150, 7),
        ],
        ids=lambda c: f"n={len(c)}",
    )
    def test_connected_and_unique(self, cells):
        assert is_connected(cells)
        assert len(cells) == len(set(cells))


class TestGeneratorShapes:
    def test_line_count(self):
        assert len(line(13)) == 13

    def test_vertical_line(self):
        cells = line(5, vertical=True)
        assert all(x == 0 for x, _ in cells)

    def test_solid_count(self):
        assert len(solid_rectangle(6, 3)) == 18

    def test_ring_has_hole(self):
        cells = set(ring(6))
        assert (3, 3) not in cells
        assert len(cells) == 20

    def test_thick_ring(self):
        cells = set(ring(8, thickness=2))
        assert (3, 3) not in cells
        assert (1, 1) in cells

    def test_diamond_ring_is_thin(self):
        cells = diamond_ring(10)
        from repro.grid.occupancy import SwarmState

        state = SwarmState(cells)
        assert all(state.degree(c) <= 3 for c in cells)

    def test_blob_seed_determinism(self):
        assert random_blob(100, 42) == random_blob(100, 42)
        assert random_blob(100, 42) != random_blob(100, 43)

    def test_tree_has_many_leaves(self):
        from repro.grid.occupancy import SwarmState

        cells = random_tree(200, 1)
        state = SwarmState(cells)
        leaves = sum(1 for c in cells if state.degree(c) == 1)
        assert leaves >= 5

    def test_bad_args_raise(self):
        with pytest.raises(ValueError):
            line(0)
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            ring(8, thickness=5)
        with pytest.raises(ValueError):
            solid_rectangle(0, 3)


class TestFamilies:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_sizes_roughly_match(self, name):
        cells = family(name, 150)
        assert is_connected(cells)
        assert 0.5 * 150 <= len(cells) <= 2.5 * 150

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            family("nope", 10)


class TestValidation:
    def test_ensure_connected_ok(self):
        assert ensure_connected([(1, 0), (0, 0)]) == [(0, 0), (1, 0)]

    def test_ensure_connected_rejects(self):
        with pytest.raises(ValueError):
            ensure_connected([(0, 0), (5, 5)])
        with pytest.raises(ValueError):
            ensure_connected([])

    def test_disconnected_output_is_an_invariant_error(self):
        """A generator bug that yields a disconnected shape raises a
        typed error that survives ``python -O`` (not a bare assert)."""
        from repro.errors import InvariantError
        from repro.swarms.generators import _finish

        with pytest.raises(InvariantError, match="disconnected"):
            _finish([(0, 0), (5, 5)])
        assert _finish([(1, 0), (0, 0)]) == [(0, 0), (1, 0)]

    def test_normalize(self):
        assert normalize([(5, 7), (6, 7)]) == [(0, 0), (1, 0)]
        assert normalize([]) == []


class TestSerialization:
    def test_text_roundtrip(self):
        cells = ring(5)
        assert from_text(to_text(cells)) == normalize(cells)

    def test_text_orientation(self):
        art = to_text([(0, 0), (0, 1)])
        assert art == "#\n#"

    def test_from_text_shape(self):
        cells = from_text("##\n.#")
        assert cells == [(0, 1), (1, 0), (1, 1)]

    def test_json_roundtrip(self):
        cells = random_blob(50, 9)
        assert from_json(to_json(cells)) == cells

    def test_empty_text(self):
        assert to_text([]) == ""
        assert from_text("") == []
