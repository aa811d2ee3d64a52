"""The package's public surface."""

import pickle

import pytest

import tropfan
from tropfan import discriminant
from tropfan.data import cube_matrix

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
    "shoot_vertices",
    "random_vertices",
}


def test_public_names_are_pinned_and_resolve():
    # a name joins or leaves the surface only by an edit to PUBLIC
    assert len(tropfan.__all__) == len(PUBLIC) == 15
    assert set(tropfan.__all__) == PUBLIC
    for name in tropfan.__all__:
        assert getattr(tropfan, name) is not None, name


def test_record_types_are_immutable_named_tuples(monkeypatch):
    calls = []
    pack = discriminant._pack_cones
    monkeypatch.setattr(discriminant, "_pack_cones", lambda prob: calls.append(1) or pack(prob))
    prob = tropfan.setup(cube_matrix(3))
    vertex = tropfan.shoot_vertex(prob, range(1, 9))
    assert prob.A.columns is prob.A.columns  # a cached_property
    assert prob.fan.ray_support(0) == tuple(
        j + 1 for j, x in enumerate(prob.fan.rays[0]) if x
    )
    for record in (prob.A, prob.fan, vertex, prob.codim1_cones[0]):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        cls = type(record)
        assert cls(*record) == record
        assert cls(**record._asdict()) == record
        assert pickle.loads(pickle.dumps(record)) == record

    bare = tropfan.NewtonVertex((1, 2), (3, 4), (5,))
    assert (bare.perturbed, bare.duplicate_of) == (False, None)
    assert bare._replace(duplicate_of=7) == tropfan.NewtonVertex((1, 2), (3, 4), (5,), False, 7)

    # the problem stays mutable: a cleared a_degree is set again by the next
    # shot; the packed cones are built once
    assert prob.a_degree == vertex.a_degree
    prob.a_degree = None
    assert tropfan.shoot_vertex(prob, range(1, 9)) == vertex
    assert prob.a_degree == vertex.a_degree
    assert prob._packed is prob._packed
    assert calls == [1]
