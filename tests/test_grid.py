"""Grid construction: mesh bookkeeping, quadrature identities, frequency groups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddvef.errors import ConfigError
from ddvef.grid import (
    BENCHMARK_GROUP_BOUNDS,
    SIDES,
    AngularQuadrature,
    FrequencyGrid,
    SpatialMesh,
    boundary_cells,
    build_angular_quadrature,
    build_frequency_grid,
    face_means,
    normal_face_means,
    on_boundary_faces,
)
from product_rule import unfold


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

    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (4, 1), (5, 3)])
    def test_side_tables_follow_boundary_slice(self, nx, ny):
        # Each side's faces, as boundary_slice gives them, hold that side's
        # cells, widths and spread values, on one-cell-wide meshes too.
        mesh = SpatialMesh(nx, ny, 2.0, 1.0)
        per_side = np.arange(8.0).reshape(4, 2)
        spread, (cells, width) = on_boundary_faces(mesh, per_side), boundary_cells(mesh)
        idx = np.arange(mesh.n_cells).reshape(ny, nx)
        behind = (idx[:, 0], idx[:, -1], idx[0], idx[-1])
        for s, (side, side_cells, side_width) in enumerate(zip(SIDES, behind, (mesh.dx, mesh.dx, mesh.dy, mesh.dy))):
            faces = mesh.boundary_slice(side)
            np.testing.assert_array_equal(cells[faces], side_cells)
            np.testing.assert_array_equal(width[faces], np.full(side_cells.size, side_width))
            np.testing.assert_array_equal(spread[:, faces], np.repeat(per_side[s][:, None], side_cells.size, axis=1))

    def test_normal_face_means_take_fxx_on_x_faces_and_fyy_on_y_faces(self):
        mesh = SpatialMesh(4, 3, 2.0, 1.5)
        fxx, fyy = np.random.default_rng(0).uniform(size=(2, 2, 3, 4))
        means, n_x = normal_face_means(mesh, fxx, fyy), 3 * 3
        np.testing.assert_array_equal(means[:, :n_x], (0.5 * (fxx[:, :, 1:] + fxx[:, :, :-1])).reshape(2, -1))
        np.testing.assert_array_equal(means[:, n_x:], (0.5 * (fyy[:, 1:] + fyy[:, :-1])).reshape(2, -1))
        np.testing.assert_array_equal(normal_face_means(mesh, fxx, fxx), face_means(mesh, fxx))

    def test_invalid_mesh_rejected(self):
        with pytest.raises(ConfigError):
            SpatialMesh(0, 4, 1.0, 1.0)
        with pytest.raises(ConfigError):
            SpatialMesh(4, 4, -1.0, 1.0)
        with pytest.raises(ConfigError):
            SpatialMesh(4, 4, 1.0, 0.0)

    @pytest.mark.parametrize(
        "args",
        [
            (4, 4, np.nan, 6.0), (4, 4, np.inf, 6.0), (4, 4, 6.0, np.nan), (2.5, 4, 6.0, 6.0), (True, 2, 1.0, 1.0),
            (2, 2, True, 6.0), (2, 2, 6.0, np.True_),
        ],
    )
    def test_non_finite_extent_or_fractional_count_rejected(self, args):
        with pytest.raises(ConfigError):
            SpatialMesh(*args)


class TestAngularQuadrature:
    def test_benchmark_direction_count(self):
        # The 6 x 24 product rule has 144 directions; the sweep sees the
        # Omega_z > 0 half of them.
        quad = build_angular_quadrature(6, 24)
        assert quad.n_directions == 72
        assert unfold(quad)[0].n_directions == 144

    def test_moment_identities_direct_sums(self):
        # Recompute the identities of the unfolded product rule by explicit
        # summation, independent of the constructor's own check.
        quad = unfold(build_angular_quadrature(6, 24))[0]
        w, om = quad.weight, quad.omega
        assert abs(sum(w) - 4.0 * np.pi) < 1e-12
        for k in range(3):
            assert abs(sum(w * om[:, k])) < 1e-12
        for a in range(3):
            for b in range(3):
                s = sum(w * om[:, a] * om[:, b])
                expect = 4.0 * np.pi / 3.0 if a == b else 0.0
                assert abs(s - expect) < 1e-12

    @settings(max_examples=12)
    @given(st.integers(2, 8), st.integers(1, 6))
    def test_moment_identities_random_orders(self, n_polar, n_az4):
        quad = unfold(build_angular_quadrature(n_polar, 4 * n_az4))[0]
        w, om = quad.weight, quad.omega
        assert abs(w.sum() - 4.0 * np.pi) < 1e-12
        assert np.abs(w @ om).max() < 1e-12
        second = np.einsum("m,mi,mj->ij", w, om, om)
        assert np.abs(second - (4 * np.pi / 3) * np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("n_polar, n_azimuthal", [(2, 8), (3, 4), (6, 24)])
    def test_unfolds_to_the_product_rule(self, n_polar, n_azimuthal):
        # Gauss-Legendre polar cosines crossed with equally weighted
        # azimuths, built here independently of the constructor. Each
        # first-quadrant azimuth stands for its four sign mirrors.
        mu, w_mu = np.polynomial.legendre.leggauss(n_polar)
        phi = (np.arange(n_azimuthal // 4) + 0.5) * (2.0 * np.pi / n_azimuthal)
        s = np.sqrt(1.0 - mu**2)
        product = {
            (s[k] * (sx * np.cos(p)), s[k] * (sy * np.sin(p)), mu[k], w_mu[k] * (2.0 * np.pi / n_azimuthal))
            for k in range(n_polar)
            for p in phi
            for sx in (1.0, -1.0)
            for sy in (1.0, -1.0)
        }
        full = unfold(build_angular_quadrature(n_polar, n_azimuthal))[0]
        assert {(*om, w) for om, w in zip(full.omega.tolist(), full.weight.tolist())} == product

    def test_folded_moments_in_the_plane(self):
        # Every sum even in Omega_z survives the fold; the first z-moment,
        # which no solver reads, is the only identity it breaks.
        quad = build_angular_quadrature(4, 12)
        w, om = quad.weight, quad.omega
        assert np.all(om[:, 2] > 0.0)
        assert abs(w.sum() - 4.0 * np.pi) < 1e-12
        assert np.abs(w @ om[:, :2]).max() < 1e-12
        second = np.einsum("m,mi,mj->ij", w, om, om)
        assert np.abs(second - (4 * np.pi / 3) * np.eye(3)).max() < 1e-12
        assert w @ om[:, 2] > 1.0

    def test_odd_polar_order_keeps_the_equator_once(self):
        # leggauss(3): nodes 0 and +-sqrt(3/5) with weights 8/9 and 5/9.
        quad = build_angular_quadrature(3, 8)
        assert quad.n_directions == 16
        equator = quad.omega[:, 2] == 0.0
        assert equator.sum() == 8
        np.testing.assert_allclose(quad.weight[equator], (8.0 / 9.0) * 2.0 * np.pi / 8, rtol=1e-14)
        np.testing.assert_allclose(quad.omega[~equator, 2], np.sqrt(0.6), rtol=1e-14)
        np.testing.assert_allclose(quad.weight[~equator], 2.0 * (5.0 / 9.0) * 2.0 * np.pi / 8, rtol=1e-14)
        assert abs(quad.weight.sum() - 4.0 * np.pi) < 1e-12
        assert unfold(quad)[0].n_directions == 24

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

    @pytest.mark.parametrize(
        "n_polar, n_azimuthal", [(2, 4), (2, 8), (3, 8), (4, 12), (5, 12), (5, 20), (6, 16), (6, 24), (4, 36)]
    )
    def test_octants_mirror_each_other_bitwise(self, n_polar, n_azimuthal):
        # A sweep shares its chord factors across the octants and tallies its
        # energy from their summed intensities, so each must list the same
        # (|Omega_x|, |Omega_y|) and weights in the same order, bitwise; the
        # unfolded product rule too.
        built = build_angular_quadrature(n_polar, n_azimuthal)
        for quad in (built, unfold(built)[0]):
            first = quad.octants[0][2]
            assert [(sx, sy) for sx, sy, _ in quad.octants] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            assert first.size == quad.n_directions // 4
            np.testing.assert_array_equal(np.lexsort(np.abs(quad.omega[first, :2]).T[::-1]), np.arange(first.size))
            for _, _, idx in quad.octants:
                np.testing.assert_array_equal(np.abs(quad.omega[idx, :2]), np.abs(quad.omega[first, :2]))
                np.testing.assert_array_equal(quad.weight[idx], quad.weight[first])

    @pytest.mark.parametrize("rule", ["full circle", "one direction moved", "one direction dropped", "one weight moved"])
    def test_non_mirror_rule_rejected(self, rule):
        built = build_angular_quadrature(2, 8)
        omega, weight = built.omega.copy(), built.weight.copy()
        if rule == "full circle":
            # cos and sin taken over every azimuth, not mirrored from the
            # first quadrant: the mirrors differ in their last bits.
            phi = (np.arange(8) + 0.5) * (2.0 * np.pi / 8)
            s = np.sqrt(1.0 - omega[0, 2] ** 2)
            omega[:, 0], omega[:, 1] = s * np.cos(phi), s * np.sin(phi)
        elif rule == "one direction moved":
            omega[5, :2] *= 1.0 + 1e-12
        elif rule == "one weight moved":
            weight[5] *= 1.0 + 1e-12
        else:
            omega, weight = omega[1:], weight[1:]
        with pytest.raises(ConfigError, match="mirrored by sign"):
            AngularQuadrature(omega, weight)

    def test_mirrors_listed_in_another_order_are_matched_by_weight(self):
        # Omega_z mirrors share (|Omega_x|, |Omega_y|); weighted unequally
        # and listed in another order in each octant, they still pair up.
        built = build_angular_quadrature(2, 8)
        omega = np.concatenate([built.omega, built.omega * [1.0, 1.0, -1.0]])
        weight = np.concatenate([built.weight * 0.75, built.weight * 0.25])
        order = np.concatenate([np.arange(8, 16), np.arange(8)])
        swapped = np.where(omega[:, 0] > 0.0, np.arange(16), order)
        quad = AngularQuadrature(omega[swapped], weight[swapped])
        first = quad.octants[0][2]
        for _, _, idx in quad.octants:
            np.testing.assert_array_equal(quad.weight[idx], quad.weight[first])

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_direction_outside_every_octant_rejected(self, bad):
        built = build_angular_quadrature(2, 8)
        omega = built.omega.copy()
        omega[3, 1] = bad
        with pytest.raises(ConfigError, match="octant"):
            AngularQuadrature(omega, built.weight)

    @pytest.mark.parametrize(
        "omega, weight, match",
        [
            (lambda om: om, lambda w: w[:-1], "weight has shape"),
            (lambda om: om[:, :2], lambda w: w, r"shape \(M, 3\)"),
            (lambda om: om[0], lambda w: w, r"shape \(M, 3\)"),
            (lambda om: om[:0], lambda w: w[:0], r"M >= 1"),
            (lambda om: om, lambda w: -w, "positive"),
            (lambda om: om, lambda w: np.where(np.arange(w.size) == 2, 0.0, w), "positive"),
            (lambda om: om, lambda w: np.where(np.arange(w.size) == 2, np.nan, w), "positive"),
            (lambda om: om, lambda w: np.where(np.arange(w.size) == 2, np.inf, w), "finite"),
            (lambda om: np.where(np.arange(3) == 2, np.nan, om), lambda w: w, "finite"),
            (lambda om: np.where(np.arange(3) == 0, np.inf, om), lambda w: w, "finite"),
        ],
    )
    def test_bad_direct_construction_rejected(self, omega, weight, match):
        built = build_angular_quadrature(2, 4)
        with pytest.raises(ConfigError, match=match):
            AngularQuadrature(omega(built.omega), weight(built.weight))

    def test_half_range_masks_partition(self):
        quad = build_angular_quadrature(4, 8)
        out, inc = quad.omega[:, 0] > 0.0, quad.omega[:, 0] < 0.0
        assert np.all(out ^ inc)  # no grazing directions
        assert out.sum() == quad.n_directions // 2

    def test_half_range_current_weight(self):
        # The incoming weighted current of a unit isotropic field approximates
        # pi; exact to the azimuthal rule's accuracy, not machine precision.
        quad = build_angular_quadrature(6, 24)
        inc = quad.omega[:, 0] > 0.0  # entering through the left side
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

    @pytest.mark.parametrize(
        "n_polar, n_azimuthal, name",
        [(2.5, 8, "n_polar"), (np.nan, 8, "n_polar"), ("2", 8, "n_polar"), (2, 8.0, "n_azimuthal"), (2, "8", "n_azimuthal")],
    )
    def test_non_integer_orders_rejected(self, n_polar, n_azimuthal, name):
        with pytest.raises(ConfigError, match=f"{name} must be a whole number"):
            build_angular_quadrature(n_polar, n_azimuthal)


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

    @pytest.mark.parametrize(
        "bounds, match",
        [
            ([0.0, 2.0, 1.0], "increasing"),
            ([0.0, -1.0, 2.0], "increasing"),
            ([0.0, 1.0, 1.0], "increasing"),
            ([1.0, 2.0], "start at 0"),
            ([np.nan, 1.0], "start at 0"),
            ([0.0, 1.0, np.inf], "finite"),
            ([0.0, np.nan, 1.0], "finite"),
            ([0.0], "at least one group"),
            ([[0.0, 1.0]], "1-D"),
        ],
    )
    def test_direct_construction_checks_its_bounds(self, bounds, match):
        # FrequencyGrid itself refuses the bounds build_frequency_grid refuses,
        # so a grid built directly cannot give nan group values either.
        with pytest.raises(ConfigError, match=match):
            FrequencyGrid(np.array(bounds))

    def test_direct_construction_keeps_a_read_only_copy(self):
        bounds = np.array([0.0, 1.0, 2.0])
        grid = FrequencyGrid(bounds)
        bounds[1] = 5.0
        np.testing.assert_array_equal(grid.bounds, [0.0, 1.0, 2.0])
        assert grid.n_groups == 2
        with pytest.raises(ValueError):
            grid.bounds[0] = 1.0
        np.testing.assert_array_equal(FrequencyGrid([0, 1]).bounds, [0.0, 1.0])

    @pytest.mark.parametrize("bounds", [[1.0, np.nan], [np.nan, 1.0], [1.0, np.inf]])
    def test_non_finite_bounds_rejected(self, bounds):
        # nan fails no <= test, and an inf edge leaves the last group's width nan.
        with pytest.raises(ConfigError, match="finite"):
            build_frequency_grid(bounds)
