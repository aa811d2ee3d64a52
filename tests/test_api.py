"""The package's public surface."""

import tropfan

PUBLIC = {
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
    "random_vertices",
}


def test_public_names_are_pinned_and_resolve():
    # a name joins or leaves the surface only by an edit to PUBLIC
    assert len(tropfan.__all__) == len(PUBLIC) == 14
    assert set(tropfan.__all__) == PUBLIC
    for name in tropfan.__all__:
        assert getattr(tropfan, name) is not None, name
