"""Unit tests for the uniform-grid spatial index."""

import pytest

from repro.mobility.index import SpatialIndex


def _brute_within(positions, origin, radius_m):
    """Reference answer: ids whose exact distance is within radius."""
    ox, oy = origin
    return {
        did
        for did, (x, y) in positions.items()
        if (x - ox) ** 2 + (y - oy) ** 2 <= radius_m**2
    }


class TestConstruction:
    def test_rejects_non_positive_cell_size(self):
        with pytest.raises(ValueError):
            SpatialIndex(0.0)
        with pytest.raises(ValueError):
            SpatialIndex(-5.0)

    def test_len_and_contains(self):
        index = SpatialIndex(50.0)
        assert len(index) == 0
        index.insert("a", (0.0, 0.0))
        index.insert("b", (120.0, 40.0))
        assert len(index) == 2
        assert "a" in index and "b" in index and "c" not in index


class TestMembership:
    def test_duplicate_insert_raises(self):
        index = SpatialIndex(50.0)
        index.insert("a", (0.0, 0.0))
        with pytest.raises(ValueError):
            index.insert("a", (10.0, 10.0))

    def test_remove_unknown_is_ignored(self):
        index = SpatialIndex(50.0)
        index.remove("ghost")
        assert len(index) == 0

    def test_remove_drops_from_queries(self):
        index = SpatialIndex(50.0)
        index.insert("a", (10.0, 10.0))
        index.insert("b", (20.0, 20.0))
        index.remove("a")
        assert len(index) == 1
        assert set(index.query_neighbors((15.0, 15.0), 50.0)) == {"b"}


class TestQueryNeighbors:
    def test_returns_superset_of_exact_answer(self):
        index = SpatialIndex(50.0)
        positions = {}
        # Deterministic scatter across several cells.
        for i in range(100):
            pos = (float((i * 37) % 400), float((i * 71) % 400))
            positions[f"d{i}"] = pos
            index.insert(f"d{i}", pos)
        origin = (200.0, 200.0)
        radius = 50.0
        candidates = set(index.query_neighbors(origin, radius))
        exact = _brute_within(positions, origin, radius)
        assert exact <= candidates

    def test_negative_reach_returns_nothing(self):
        index = SpatialIndex(50.0)
        index.insert("a", (0.0, 0.0))
        assert index.query_neighbors((0.0, 0.0), -10.0) == []

    def test_negative_coordinates(self):
        index = SpatialIndex(50.0)
        index.insert("neg", (-75.0, -75.0))
        assert set(index.query_neighbors((-60.0, -60.0), 50.0)) == {"neg"}


class TestQueryBlock:
    def test_is_superset_of_query_neighbors(self):
        index = SpatialIndex(50.0)
        for i in range(60):
            index.insert(f"d{i}", (float((i * 53) % 300), float((i * 29) % 300)))
        origin = (151.0, 151.0)
        narrow = set(index.query_neighbors(origin, 50.0))
        block = set(index.query_block(origin, 50.0))
        assert narrow <= block

    def test_repeat_query_returns_a_fresh_list(self):
        index = SpatialIndex(50.0)
        index.insert("a", (10.0, 10.0))
        first = index.query_block((12.0, 12.0), 50.0)
        second = index.query_block((12.0, 12.0), 50.0)
        assert second == first == ["a"]
        assert second is not first  # the caller owns (and may extend) it

    def test_insert_invalidates_cache(self):
        index = SpatialIndex(50.0)
        index.insert("a", (10.0, 10.0))
        assert set(index.query_block((12.0, 12.0), 50.0)) == {"a"}
        index.insert("b", (20.0, 20.0))
        assert set(index.query_block((12.0, 12.0), 50.0)) == {"a", "b"}

    def test_remove_invalidates_cache(self):
        index = SpatialIndex(50.0)
        index.insert("a", (10.0, 10.0))
        index.insert("b", (20.0, 20.0))
        index.query_block((12.0, 12.0), 50.0)
        index.remove("a")
        assert set(index.query_block((12.0, 12.0), 50.0)) == {"b"}

    def test_cross_cell_move_invalidates_cache(self):
        # a static moves by leaving and re-entering at its new position
        index = SpatialIndex(50.0)
        index.insert("a", (10.0, 10.0))
        index.query_block((12.0, 12.0), 50.0)
        index.remove("a")
        index.insert("a", (510.0, 510.0))
        assert index.query_block((12.0, 12.0), 50.0) == []
        assert index.query_block((505.0, 505.0), 50.0) == ["a"]

    def test_negative_reach_returns_nothing(self):
        index = SpatialIndex(50.0)
        index.insert("a", (0.0, 0.0))
        assert index.query_block((0.0, 0.0), -10.0) == []


class TestDiagnostics:
    def test_cell_population(self):
        index = SpatialIndex(50.0)
        index.insert("a", (10.0, 10.0))
        index.insert("b", (20.0, 20.0))
        index.insert("c", (210.0, 210.0))
        assert index.cell_population() == [1, 2]
