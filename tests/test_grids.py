import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcalc.grids import GapError, GridSpec, OutOfBoxError, bridge_gaps, line_cells, regionize


def cells_of(points, grid, clamp=False):
    """regionize on a list of (lat, lon) points."""
    return regionize([lat for lat, _ in points], [lon for _, lon in points], grid, clamp=clamp)


class TestGridSpec:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 0, 2)

    def test_cell_mapping(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        assert cells_of([(0.25, 0.25)], g) == [0]
        assert cells_of([(0.25, 0.75)], g) == [1]
        assert cells_of([(0.75, 0.25)], g) == [2]
        # points exactly on the max edge stay in the last row/col
        assert cells_of([(1.0, 1.0)], g) == [3]

    def test_eight_adjacency(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
        assert set(g.neighbors(4)) == {0, 1, 2, 3, 5, 6, 7, 8}
        assert set(g.neighbors(0)) == {1, 3, 4}
        assert g.externally_connected(0, 4)      # corner touch
        assert not g.externally_connected(0, 2)  # one apart
        assert not g.externally_connected(4, 4)  # equal is not EC


class TestRegionize:
    def test_collapses_duplicates(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        assert cells_of([(0.25, 0.25), (0.26, 0.26), (0.25, 0.75)], g) == [0, 1]

    def test_out_of_box(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        with pytest.raises(OutOfBoxError) as err:
            cells_of([(0.25, 0.25), (2.0, 0.25)], g)
        assert err.value.index == 1
        assert str(err.value) == "point 1 at (2.0, 0.25) is outside the grid bounding box"
        assert cells_of([(0.25, 0.25), (2.0, 0.25)], g, clamp=True) == [0, 2]

    def test_non_finite_coordinates(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        for clamp in (False, True):
            with pytest.raises(ValueError, match="point 1 has non-finite"):
                cells_of([(0.25, 0.25), (float("nan"), 0.25)], g, clamp=clamp)

    def test_empty_input(self):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            regionize([], [], g)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=30))
    def test_never_consecutive_duplicates(self, coords):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4)
        seq = cells_of(coords, g)
        assert all(a != b for a, b in zip(seq, seq[1:]))


class TestLineCells:
    def test_diagonal(self):
        assert line_cells((0, 0), (2, 2)) == [(0, 0), (1, 1), (2, 2)]

    def test_axis_aligned(self):
        assert line_cells((0, 0), (0, 3)) == [(0, 0), (0, 1), (0, 2), (0, 3)]
        assert line_cells((3, 1), (0, 1)) == [(3, 1), (2, 1), (1, 1), (0, 1)]

    def test_degenerate(self):
        assert line_cells((2, 2), (2, 2)) == [(2, 2)]

    @settings(max_examples=200, deadline=None)
    @given(r0=st.integers(0, 9), c0=st.integers(0, 9),
           r1=st.integers(0, 9), c1=st.integers(0, 9))
    def test_chain_properties(self, r0, c0, r1, c1):
        cells = line_cells((r0, c0), (r1, c1))
        assert cells[0] == (r0, c0)
        assert cells[-1] == (r1, c1)
        for (ra, ca), (rb, cb) in zip(cells, cells[1:]):
            assert (ra, ca) != (rb, cb)
            assert abs(ra - rb) <= 1 and abs(ca - cb) <= 1
        assert len(cells) == 1 + max(abs(r1 - r0), abs(c1 - c0))


class TestBridgeGaps:
    def test_already_connected(self, grid3):
        assert bridge_gaps([0, 1], grid3, "reject") == [0, 1]
        assert bridge_gaps([0, 1], grid3, "rasterize") == [0, 1]

    def test_corner_to_corner(self, grid3):
        # frozen from the raster-line walk: (0,0) -> (1,1) -> (2,2)
        assert bridge_gaps([0, 8], grid3, "rasterize") == [0, 4, 8]

    def test_reject_reports_index(self, grid3):
        with pytest.raises(GapError) as err:
            bridge_gaps([0, 8], grid3, "reject")
        assert err.value.index == 0

    def test_duplicate_pair_rejected_but_rasterized_away(self, grid3):
        with pytest.raises(GapError):
            bridge_gaps([0, 0, 1], grid3, "reject")
        assert bridge_gaps([0, 0, 1], grid3, "rasterize") == [0, 1]

    def test_cell_range_checked(self, grid3):
        with pytest.raises(ValueError):
            bridge_gaps([0, 99], grid3, "rasterize")

    @settings(max_examples=150, deadline=None)
    @given(seq=st.lists(st.integers(0, 24), min_size=1, max_size=12))
    def test_rasterize_restores_chain_invariant(self, seq):
        g = GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5)
        out = bridge_gaps(seq, g, "rasterize")
        assert out[0] == seq[0]
        assert out[-1] == seq[-1] or (len(set(seq)) == 1 and len(out) == 1)
        for a, b in zip(out, out[1:]):
            assert g.externally_connected(a, b)
