"""Exact feasibility oracle used by the acceptance tests."""

from fractions import Fraction

from brute import nonneg_combination_exists


def test_point_inside_quadrant():
    assert nonneg_combination_exists([(1, 0), (0, 1)], [], (3, 5))
    assert not nonneg_combination_exists([(1, 0), (0, 1)], [], (-1, 5))


def test_free_generator_absorbs_sign():
    assert nonneg_combination_exists([(1, 0)], [(0, 1)], (2, -7))
    assert not nonneg_combination_exists([(1, 0)], [(0, 1)], (-2, -7))


def test_lineality_shifts_membership():
    # cone(e1) + R*(1,1): (0, 3) = 3*(1,1) - 3*e1? coefficient on e1 must be >= 0
    assert nonneg_combination_exists([(1, 0)], [(1, 1)], (5, 3))
    assert not nonneg_combination_exists([(1, 0)], [(1, 1)], (0, 3))


def test_dependent_generators():
    assert nonneg_combination_exists([(1, 1), (2, 2), (1, 0)], [], (4, 2))
    assert not nonneg_combination_exists([(1, 1), (2, 2)], [], (1, 2))


def test_rational_data():
    half = Fraction(1, 2)
    assert nonneg_combination_exists([(half, 0), (0, half)], [], (half, 1))
    assert not nonneg_combination_exists([(half, 0)], [], (0, half))


def test_zero_target_always_feasible():
    assert nonneg_combination_exists([(1, 2), (3, 4)], [(5, 6)], (0, 0))
    assert nonneg_combination_exists([], [], (0, 0))
    assert not nonneg_combination_exists([], [], (1, 0))


def test_inconsistent_even_with_free_vars():
    assert not nonneg_combination_exists([], [(1, 1, 0)], (0, 1, 1))
    assert nonneg_combination_exists([(0, 0, 1)], [(1, 1, 0)], (2, 2, 3))


def test_degenerate_rows():
    assert nonneg_combination_exists([(1, 0), (1, 0)], [], (0, 0))
    assert not nonneg_combination_exists([(1, 1)], [], (1, 0))
