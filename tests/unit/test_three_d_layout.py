"""Unit tests for the 3-D layout models (Section 7)."""

import pytest

from repro.analysis.fitting import fit_exponent
from repro.vlsi.three_d_layout import (
    ThreeDHybridLayout,
    ThreeDUltrascalar1Layout,
    optimal_cluster_size_3d,
)
from repro.vlsi.htree_layout import Ultrascalar1Layout


class TestThreeDUltrascalar1:
    def test_wire_grows_as_cube_root(self):
        sizes = [8**k for k in range(2, 7)]
        wires = [ThreeDUltrascalar1Layout(n, 32).critical_wire for n in sizes]
        assert fit_exponent(sizes, wires) == pytest.approx(1 / 3, abs=0.05)

    def test_root_to_leaf_steps_to_octant_centres(self):
        # a cube's centre is X(k)/4 from an octant's along each of 3 axes
        layout = ThreeDUltrascalar1Layout(512, 32)
        hand = sum(
            3 * layout.side_length(k) / 4 + layout.switch_block_side(k) for k in (512, 64, 8)
        )
        assert layout.root_to_leaf_wire() == pytest.approx(hand, rel=1e-12)

    def test_volume_grows_linearly_in_n(self):
        sizes = [8**k for k in range(2, 7)]
        volumes = [ThreeDUltrascalar1Layout(n, 32).volume for n in sizes]
        assert fit_exponent(sizes, volumes) == pytest.approx(1.0, abs=0.08)

    def test_wire_grows_as_sqrt_L(self):
        Ls = [8, 32, 128, 512]
        wires = [ThreeDUltrascalar1Layout(4096, L).critical_wire for L in Ls]
        assert fit_exponent(Ls, wires) == pytest.approx(0.5, abs=0.05)

    def test_volume_grows_as_L_to_three_halves(self):
        Ls = [8, 32, 128, 512]
        volumes = [ThreeDUltrascalar1Layout(4096, L).volume for L in Ls]
        assert fit_exponent(Ls, volumes) == pytest.approx(1.5, abs=0.12)

    def test_3d_wires_shorter_than_2d(self):
        """The whole point of three dimensions: shorter wires at scale."""
        for n in (4096, 65536):
            flat = Ultrascalar1Layout(n, 32).critical_wire
            cubed = ThreeDUltrascalar1Layout(n, 32).critical_wire
            assert cubed < flat

    def test_memory_bandwidth_inflates_block(self):
        lean = ThreeDUltrascalar1Layout(4096, 32)
        fat = ThreeDUltrascalar1Layout(4096, 32, bandwidth=lambda n: float(n))
        assert fat.side_length() > lean.side_length()

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreeDUltrascalar1Layout(0, 32)


class TestThreeDHybrid:
    def test_sweep_is_u_shaped(self):
        _, sides = optimal_cluster_size_3d(2**15, 64)
        best = min(sides, key=sides.get)
        assert sides[best] < sides[1]
        assert sides[best] < sides[max(sides)]

    def test_paper_optimum_within_the_bowl(self):
        """Our model's U(C) bowl is shallow; the paper's Θ(L^(3/4))
        optimum lies within 15% of the model's minimum."""
        for L in (64, 256):
            _, sides = optimal_cluster_size_3d(2**15, L)
            minimum = min(sides.values())
            paper_c = min(sides, key=lambda c: abs(c - L**0.75))
            assert sides[paper_c] <= 1.15 * minimum

    def test_3d_optimum_not_larger_than_2d(self):
        from repro.vlsi.hybrid_layout import optimal_cluster_size

        for L in (16, 64):
            best3, _ = optimal_cluster_size_3d(2**15, L)
            best2, _ = optimal_cluster_size(2**14, L)
            assert best3 <= best2 * 2  # paper: optimum shrinks in 3-D

    def test_volume_scales_gently_with_L(self):
        """At optimal C the hybrid volume grows sublinearly beyond ~L
        (paper: Θ(n L^(3/4)))."""
        volumes = []
        for L in (16, 64, 256):
            best, sides = optimal_cluster_size_3d(2**15, L)
            volumes.append(sides[best] ** 3)
        exponent = fit_exponent([16, 64, 256], volumes)
        assert exponent < 1.0  # sublinear in L

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreeDHybridLayout(100, 32)
        with pytest.raises(ValueError):
            ThreeDHybridLayout(0, 1)
        with pytest.raises(ValueError):
            optimal_cluster_size_3d(0, 32)
