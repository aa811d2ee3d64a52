"""Small shared helpers: bitmask encoding of index sets and vector normalization.

Ground-set elements are 1-based everywhere in public interfaces; element i is
stored as bit i-1 of a Python int, so masks sort and compare cheaply.
"""

from math import gcd
from operator import mul


def mask_of(elements):
    """Bitmask of an iterable of 1-based indices."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask):
    """Sorted tuple of 1-based indices in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def mask_to_vector(mask, n):
    """0/1 tuple of length n whose i-th coordinate marks element i+1."""
    return tuple((mask >> i) & 1 for i in range(n))


def primitive(vec):
    """Scale an integer vector by 1/gcd and fix the sign of its first nonzero entry positive.

    Returns the zero vector unchanged.
    """
    g = gcd(*vec)
    if g == 0:
        return tuple(vec)
    lead = next(x for x in vec if x != 0)
    if lead < 0:
        g = -g
    return tuple(x // g for x in vec)


def dot(u, v):
    return sum(map(mul, u, v))
