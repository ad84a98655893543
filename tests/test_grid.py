"""Grid construction: mesh bookkeeping, quadrature identities, frequency groups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddvef.errors import ConfigError
from ddvef.grid import (
    BENCHMARK_GROUP_BOUNDS,
    SpatialMesh,
    build_angular_quadrature,
    build_frequency_grid,
)


class TestSpatialMesh:
    def test_benchmark_mesh_geometry(self):
        mesh = SpatialMesh(20, 20, 6.0, 6.0)
        assert mesh.dx == pytest.approx(0.3)
        assert mesh.dy == pytest.approx(0.3)
        assert mesh.n_cells == 400
        # Cell areas tile the domain exactly.
        assert mesh.cell_volume * mesh.n_cells == pytest.approx(36.0, abs=1e-12)

    def test_boundary_faces_partition(self):
        mesh = SpatialMesh(5, 3, 1.0, 1.0)
        assert mesh.n_boundary_faces == 16
        seen = []
        for side in ("left", "right", "bottom", "top"):
            sl = mesh.boundary_slice(side)
            seen.extend(range(sl.start, sl.stop))
        assert sorted(seen) == list(range(16))

    def test_invalid_mesh_rejected(self):
        with pytest.raises(ConfigError):
            SpatialMesh(0, 4, 1.0, 1.0)
        with pytest.raises(ConfigError):
            SpatialMesh(4, 4, -1.0, 1.0)
        with pytest.raises(ConfigError):
            SpatialMesh(4, 4, 1.0, 0.0)


class TestAngularQuadrature:
    def test_benchmark_direction_count(self):
        quad = build_angular_quadrature(6, 24)
        assert quad.n_directions == 144

    def test_moment_identities_direct_sums(self):
        # Recompute the identities by explicit summation, independent of the
        # constructor's own check.
        quad = build_angular_quadrature(6, 24)
        w, om = quad.weight, quad.omega
        assert abs(sum(w) - 4.0 * np.pi) < 1e-12
        for k in range(3):
            assert abs(sum(w * om[:, k])) < 1e-12
        for a in range(3):
            for b in range(3):
                s = sum(w * om[:, a] * om[:, b])
                expect = 4.0 * np.pi / 3.0 if a == b else 0.0
                assert abs(s - expect) < 1e-12

    @settings(max_examples=12, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 6))
    def test_moment_identities_random_orders(self, n_polar, n_az4):
        quad = build_angular_quadrature(n_polar, 4 * n_az4)
        w, om = quad.weight, quad.omega
        assert abs(w.sum() - 4.0 * np.pi) < 1e-12
        assert np.abs(w @ om).max() < 1e-12
        second = np.einsum("m,mi,mj->ij", w, om, om)
        assert np.abs(second - (4 * np.pi / 3) * np.eye(3)).max() < 1e-12

    def test_unit_directions(self):
        quad = build_angular_quadrature(4, 8)
        np.testing.assert_allclose(np.linalg.norm(quad.omega, axis=1), 1.0, atol=1e-14)

    def test_no_axis_aligned_directions(self):
        quad = build_angular_quadrature(6, 24)
        assert np.abs(quad.omega[:, 0]).min() > 1e-12
        assert np.abs(quad.omega[:, 1]).min() > 1e-12

    def test_octants_partition_directions(self):
        quad = build_angular_quadrature(4, 12)
        idx = np.concatenate([o[2] for o in quad.octants])
        assert sorted(idx) == list(range(quad.n_directions))
        for sx, sy, ids in quad.octants:
            assert np.all(np.sign(quad.omega[ids, 0]) == sx)
            assert np.all(np.sign(quad.omega[ids, 1]) == sy)

    def test_half_range_masks_partition(self):
        quad = build_angular_quadrature(4, 8)
        n = np.array([1.0, 0.0, 0.0])
        out = quad.half_range(n, outgoing=True)
        inc = quad.half_range(n, outgoing=False)
        assert np.all(out ^ inc)  # no grazing directions
        assert out.sum() == quad.n_directions // 2

    def test_half_range_current_weight(self):
        # The incoming weighted current of a unit isotropic field approximates
        # pi; exact to the azimuthal rule's accuracy, not machine precision.
        quad = build_angular_quadrature(6, 24)
        n = np.array([-1.0, 0.0, 0.0])
        inc = quad.half_range(n, outgoing=False)
        cur = np.sum(quad.weight[inc] * np.abs(quad.omega[inc, 0]))
        assert cur == pytest.approx(np.pi, rel=5e-3)
        # Half-range zeroth moment is exactly 2 pi by construction.
        assert np.sum(quad.weight[inc]) == pytest.approx(2.0 * np.pi, abs=1e-12)

    def test_symmetry_pruned_orders_rejected(self):
        with pytest.raises(ConfigError):
            build_angular_quadrature(1, 24)
        with pytest.raises(ConfigError):
            build_angular_quadrature(4, 18)
        with pytest.raises(ConfigError):
            build_angular_quadrature(4, 0)


class TestFrequencyGrid:
    def test_benchmark_grid(self):
        grid = build_frequency_grid()
        assert grid.n_groups == 17
        assert grid.bounds[0] == 0.0
        assert grid.bounds[1] == pytest.approx(0.7075)
        assert grid.bounds[-1] == pytest.approx(1.0e7)
        assert np.all(np.diff(grid.bounds) > 0)
        assert len(BENCHMARK_GROUP_BOUNDS) == 17

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError):
            build_frequency_grid([])
        with pytest.raises(ConfigError):
            build_frequency_grid([1.0, 1.0, 2.0])
        with pytest.raises(ConfigError):
            build_frequency_grid([-1.0, 2.0])
        with pytest.raises(ConfigError):
            build_frequency_grid([2.0, 1.0])
