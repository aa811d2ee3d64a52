"""Cyclic Bergman fans of linear matroids, in exact arithmetic.

The fan of the column matroid of an integer matrix is a simplicial polyhedral
fan supported on the tropical linear space; its rays are indicators of the
proper flats that are cyclic or singletons, and its maximal cones are
enumerated one-to-one from regressive compatible pairs.  A ray-shooting
module on top computes vertices of Newton polytopes of A-discriminants.
"""

from .discriminant import (
    DiscriminantProblem,
    NewtonVertex,
    random_vertices,
    setup,
    shoot_vertex,
    shoot_vertices,
)
from .exact import IntMat, det, integer_kernel_basis, rank
from .fan import Fan, compare_with_bergman, cyclic_bergman_fan, fan_counts
from .matroid import Matroid

__all__ = [
    "IntMat",
    "rank",
    "det",
    "integer_kernel_basis",
    "Matroid",
    "Fan",
    "cyclic_bergman_fan",
    "fan_counts",
    "compare_with_bergman",
    "DiscriminantProblem",
    "NewtonVertex",
    "setup",
    "shoot_vertex",
    "shoot_vertices",
    "random_vertices",
]

__version__ = "0.1.0"
