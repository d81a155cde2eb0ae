"""Exact census of lattice cubes with vertices in {0..n}^3.

The package builds every irreducible lattice cube from the parametrization
of equilateral triangles in Z^3, each from the Euler-Rodrigues frame of
the integer quaternion that made its plane solution: a cube with a
primitive main diagonal (k = 1) is that frame, and any other (k > 1)
is that frame turned about the diagonal by the quaternion of the
triangle's divisor of norm k in the Eisenstein integers.  It counts
placements through the 48-element box-symmetry orbit invariants, and
cross-checks the resulting sequence NC(n) against an independent
brute-force enumerator.
"""

from .census import (
    CubeRecord,
    CubeRegistry,
    build_irreducible_list,
    build_multiples,
    count_cubes,
    placement_count,
    sequence,
)
from .diophantine import (
    NormFormSolution,
    PlaneSolution,
    k_values,
    pi_epsilon,
    solve_norm_form,
    solve_three_squares,
)
from .lattice_geometry import Cube, Frame, Vec3, build_cube
from .oracle import brute_force_count, brute_force_sequence
from .symmetry import InvariantSet, invariants

__version__ = "0.1.0"

__all__ = [
    "Cube",
    "CubeRecord",
    "CubeRegistry",
    "Frame",
    "InvariantSet",
    "NormFormSolution",
    "PlaneSolution",
    "Vec3",
    "brute_force_count",
    "brute_force_sequence",
    "build_cube",
    "build_irreducible_list",
    "build_multiples",
    "count_cubes",
    "invariants",
    "k_values",
    "pi_epsilon",
    "placement_count",
    "sequence",
    "solve_norm_form",
    "solve_three_squares",
]
