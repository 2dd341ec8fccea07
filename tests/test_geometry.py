import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vecmap.geometry import (
    DegenerateShapeError,
    Direction,
    ElementClass,
    ElementKind,
    MapElement,
    PermutationDescriptor,
    SceneRange,
    apply_permutation,
    as_points,
    denormalize,
    denormalize_stack,
    edges,
    normalize,
    normalize_stack,
    permutation_group,
    resample,
)
from vecmap.metrics import _to_meters


class TestPermutationGroup:
    def test_polyline_has_two_members(self):
        group = permutation_group(ElementKind.POLYLINE, 20)
        assert len(group.members) == 2
        assert group.members[0] == PermutationDescriptor(Direction.FORWARD, 0)
        assert group.members[1] == PermutationDescriptor(Direction.REVERSE, 0)

    def test_polygon_has_two_nv_members(self):
        group = permutation_group(ElementKind.POLYGON, 4)
        assert len(group.members) == 8

    @given(st.integers(min_value=3, max_value=12))
    def test_polygon_members_are_bijections(self, n):
        group = permutation_group(ElementKind.POLYGON, n)
        for member in group.members:
            assert sorted(member.index_map(n)) == list(range(n))

    @given(st.integers(min_value=3, max_value=10))
    def test_polygon_members_pairwise_distinct(self, n):
        maps = {tuple(m.index_map(n)) for m in permutation_group(ElementKind.POLYGON, n).members}
        assert len(maps) == 2 * n

    def test_index_formulas(self):
        fwd = PermutationDescriptor(Direction.FORWARD, 2).index_map(5)
        rev = PermutationDescriptor(Direction.REVERSE, 2).index_map(5)
        assert fwd.tolist() == [2, 3, 4, 0, 1]
        assert rev.tolist() == [2, 1, 0, 4, 3]

    def test_group_closed_under_composition(self):
        # composing any two index maps lands back in the group (dihedral action)
        n = 6
        maps = [tuple(m.index_map(n)) for m in permutation_group(ElementKind.POLYGON, n).members]
        for a in maps:
            for b in maps:
                composed = tuple(a[b[j]] for j in range(n))
                assert composed in maps

    @pytest.mark.parametrize(
        "kind,n", [(ElementKind.POLYLINE, 1), (ElementKind.POLYGON, 2)]
    )
    def test_degenerate_count_rejected(self, kind, n):
        with pytest.raises(ValueError):
            permutation_group(kind, n)
        cls = ElementClass.PED_CROSSING if kind is ElementKind.POLYGON else ElementClass.DIVIDER
        with pytest.raises(ValueError, match=f"{kind.value} needs at least"):
            MapElement(cls, kind, np.zeros((n, 2)))

    def test_class_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="DIVIDER must have kind polyline"):
            MapElement(ElementClass.DIVIDER, ElementKind.POLYGON, np.zeros((4, 2)))


@pytest.mark.parametrize("points, message", [
    (np.zeros((3, 3)), r"expected an \(n, 2\) point array, got shape \(3, 3\)"),
    ([[0.0, 1.0], [np.inf, 2.0]], "points contain NaN or Inf"),
], ids=["wrong shape", "non-finite"])
def test_as_points_rejects(points, message):
    with pytest.raises(ValueError, match=message):
        as_points(points)


class TestApplyPermutation:
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])

    def test_identity(self):
        out = apply_permutation(self.points, PermutationDescriptor(Direction.FORWARD, 0))
        np.testing.assert_array_equal(out, self.points)

    def test_reversal(self):
        out = apply_permutation(self.points, PermutationDescriptor(Direction.REVERSE, 0))
        np.testing.assert_array_equal(out, self.points[::-1])

    def test_cyclic_shift(self):
        out = apply_permutation(self.points, PermutationDescriptor(Direction.FORWARD, 1))
        np.testing.assert_array_equal(out, self.points[[1, 2, 0]])

    def test_preserves_multiset(self, rng):
        pts = rng.uniform(size=(7, 2))
        for member in permutation_group(ElementKind.POLYGON, 7).members:
            out = apply_permutation(pts, member)
            assert sorted(map(tuple, out)) == sorted(map(tuple, pts))


def _resample_oracle(points, n_points, closed):
    """Independent pure-python arc-length resampler."""
    pts = [tuple(p) for p in points]
    if closed:
        pts = pts + [pts[0]]
    cum = [0.0]
    for a, b in zip(pts, pts[1:]):
        cum.append(cum[-1] + math.hypot(b[0] - a[0], b[1] - a[1]))
    total = cum[-1]
    if closed:
        targets = [total * i / n_points for i in range(n_points)]
    else:
        targets = [total * i / (n_points - 1) for i in range(n_points)]
    out = []
    for t in targets:
        k = 0
        while k < len(cum) - 2 and cum[k + 1] < t:
            k += 1
        seg = cum[k + 1] - cum[k]
        frac = 0.0 if seg == 0 else (t - cum[k]) / seg
        out.append(
            (
                pts[k][0] + frac * (pts[k + 1][0] - pts[k][0]),
                pts[k][1] + frac * (pts[k + 1][1] - pts[k][1]),
            )
        )
    return np.array(out)


def _arc_position(point, raw):
    """Arc-length coordinate of a point lying on the polyline ``raw``."""
    best = None
    travelled = 0.0
    for a, b in zip(raw, raw[1:]):
        a, b = np.asarray(a, float), np.asarray(b, float)
        seg = b - a
        length = math.hypot(*seg)
        t = float(np.clip(np.dot(point - a, seg) / length**2, 0.0, 1.0))
        dist = math.hypot(*(a + t * seg - point))
        candidate = travelled + t * length
        if best is None or dist < best[0]:
            best = (dist, candidate)
        travelled += length
    assert best[0] < 1e-9
    return best[1]


class TestResample:
    def test_straight_segment(self):
        out = resample([[0, 0], [0, 3]], ElementKind.POLYLINE, 4)
        np.testing.assert_allclose(out, [[0, 0], [0, 1], [0, 2], [0, 3]], atol=1e-12)

    def test_unit_square_corners(self):
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        out = resample(square, ElementKind.POLYGON, 4)
        np.testing.assert_allclose(out, square, atol=1e-12)

    def test_l_shape_equidistant_arc_length(self):
        raw = [[0.0, 0.0], [0.0, 5.0], [3.0, 5.0]]
        out = resample(raw, ElementKind.POLYLINE, 20)
        oracle = _resample_oracle(raw, 20, closed=False)
        np.testing.assert_allclose(out, oracle, atol=1e-9)
        # arc-length positions along the original path are equally spaced
        positions = [_arc_position(p, raw) for p in out]
        np.testing.assert_allclose(np.diff(positions), 8.0 / 19, atol=1e-9)

    def test_polygon_matches_oracle(self, rng):
        raw = rng.uniform(size=(6, 2)) * 10
        out = resample(raw, ElementKind.POLYGON, 15)
        np.testing.assert_allclose(out, _resample_oracle(raw, 15, closed=True), atol=1e-9)
        np.testing.assert_allclose(out[0], raw[0], atol=1e-12)

    def test_endpoints_preserved(self, rng):
        raw = rng.uniform(size=(5, 2)) * 20
        out = resample(raw, ElementKind.POLYLINE, 11)
        np.testing.assert_array_equal(out[0], raw[0])
        np.testing.assert_array_equal(out[-1], raw[-1])

    def test_idempotent_on_uniform_input(self):
        # equal-chord polyline: points equally spaced on a circular arc
        theta = np.linspace(0.2, 2.0, 16)
        uniform = np.column_stack([np.cos(theta), np.sin(theta)]) * 5
        again = resample(uniform, ElementKind.POLYLINE, 16)
        np.testing.assert_allclose(again, uniform, atol=1e-9)

    def test_zero_length_boundary_rejected(self):
        with pytest.raises(DegenerateShapeError):
            resample([[1.0, 1.0], [1.0, 1.0]], ElementKind.POLYLINE, 5)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            resample([[1.0, 1.0]], ElementKind.POLYGON, 5)


class TestNormalize:
    def test_corners_and_center(self):
        sr = SceneRange()
        np.testing.assert_allclose(normalize([[-15, -30]], sr), [[0, 0]])
        np.testing.assert_allclose(normalize([[15, 30]], sr), [[1, 1]])
        np.testing.assert_allclose(normalize([[0, 0]], sr), [[0.5, 0.5]])

    def test_out_of_range_not_clamped(self):
        out = normalize([[-20.0, 40.0]], SceneRange())
        assert out[0, 0] < 0 and out[0, 1] > 1

    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=8))
    def test_round_trip(self, coords):
        sr = SceneRange()
        pts = np.array(coords)
        np.testing.assert_allclose(denormalize(normalize(pts, sr), sr), pts, atol=1e-12)

    def test_stack_helpers_equal_per_element_bytes(self, rng):
        # Coordinates and bounds with -0.0, subnormals and large values;
        # a product past the float range is inf on both sides.
        odd = np.array([-0.0, 0.0, 5e-324, -1e-310, 2.5e-308, 1e300, -7e299, 3.0])

        def draw(size):
            x = rng.uniform(-50.0, 50.0, size)
            return np.where(rng.random(size) < 0.3, rng.choice(odd, size), x)

        def bounds():
            low = draw(1)[0]
            extent = rng.uniform(1.0, 100.0) * 10.0 ** rng.integers(-3, 4)
            return low, max(low + extent, np.nextafter(low, np.inf))

        for _ in range(200):
            sr = SceneRange(*bounds(), *bounds())
            E, n = rng.integers(0, 6), rng.integers(1, 7)
            # A contiguous stack, and the scan's view of score-led rows.
            rows = draw((E, 3 + 2 * n))
            with np.errstate(over="ignore"):
                for stack in (draw((E, n, 2)), rows[:, 3:].reshape(E, n, 2)):
                    norm, meters = normalize_stack(stack, sr), denormalize_stack(stack, sr)
                    assert norm.shape == meters.shape == stack.shape
                    # Against the broadcast formulas, and the per-element entries.
                    for got, public, formula in (
                        (norm, normalize, lambda p: (p - sr.lower) / sr.extent),
                        (meters, denormalize, lambda p: p * sr.extent + sr.lower),
                    ):
                        want = np.reshape([formula(p) for p in stack], stack.shape).tobytes()
                        assert got.tobytes() == want
                        each = [public(p, sr) for p in stack]
                        assert np.reshape(each, stack.shape).tobytes() == want
                ragged = [draw((k, 2)) for k in (1, 3, 2)]
                for got, p in zip(_to_meters(ragged, sr), ragged, strict=True):
                    assert got.tobytes() == denormalize(p, sr).tobytes()

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            SceneRange(x_min=1.0, x_max=1.0)
        # An infinite extent would make normalize() return NaN.
        for bound in ("x_min", "x_max", "y_min", "y_max"):
            for value in (-np.inf, np.inf, np.nan):
                with pytest.raises(ValueError, match="finite"):
                    SceneRange(**{bound: value})


class TestEdges:
    def test_polygon_edges(self):
        out = edges([[0, 0], [1, 0], [1, 1]], ElementKind.POLYGON)
        np.testing.assert_array_equal(out, [[-1, 0], [0, -1], [1, 1]])

    def test_polyline_drops_closing_edge(self):
        out = edges([[0, 0], [1, 0], [1, 1]], ElementKind.POLYLINE)
        np.testing.assert_array_equal(out, [[-1, 0], [0, -1]])

    def test_polygon_edge_count(self, rng):
        pts = rng.uniform(size=(20, 2))
        assert len(edges(pts, ElementKind.POLYGON)) == 20
        assert len(edges(pts, ElementKind.POLYLINE)) == 19

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            edges([[0.5, 0.5]], ElementKind.POLYGON)
