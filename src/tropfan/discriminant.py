"""Vertices of Newton polytopes of A-discriminants by ray shooting.

The tropicalization of the discriminantal variety of an integer matrix A is
the Minkowski sum of the tropical linear space of the Gale-dual matroid and
the rowspace of A.  Shooting axis rays from a generic objective w and summing
exact determinant weights over the codimension-one cones crossed recovers the
vertex of the Newton polytope minimizing the dot product with w.

Three exactness devices keep this fast:

* membership of the crossing point in a cone reduces, after applying the
  Gale-dual projection (whose kernel is exactly the rowspace of A), to a
  unique rational solve against the projected rays, precomputed per cone as
  an integer matrix Q and denominator D.  One walk over the trie of the
  cones' sorted ray tuples finds the codim-1 cones with their normals, Q and
  D: each trie node pivots one more projected ray into a fraction-free
  transform shared by every cone below it, and a dependent prefix drops
  its whole subtree;
* the determinant in the vertex formula factors through the cone's hyperplane
  normal: |det(A^T, rays, e_i)| = kappa * |normal_i| for a per-cone integer
  kappa, which the same walk reads off its last row in closed form, so
  shooting computes no determinant;
* every inner product one objective needs (normal . w and Q . w for every
  cone) comes from one pass of exact big-int arithmetic: coordinate t of all
  normals and Q rows is packed into one int as signed 64-bit lanes, and the
  sum over t of w_t times that int, plus 2^63 in every lane, is read back as
  64-bit words.  Each lane equals sum_t w_t * x_t, so
  |lane| <= n * max|x| * max|w|; a vector for which that bound could reach
  2^63 takes plain `dot` products instead, so the products are exact for
  every input.

Non-generic objectives are resolved by symbolic perturbation w + eps*r with a
seeded random integer r; every sign test is evaluated lexicographically on
the (constant, eps) pair, and the rare unresolved double zero draws a fresh r
rather than guessing.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, compress
from math import gcd
from operator import index

from .errors import (
    DegenerateDual,
    InternalInvariant,
    LatticeNotSpanned,
    NoAllOnesRow,
    RankError,
    WrongSize,
)
from .exact import (
    IntMat,
    det,
    det_of_columns,
    integer_kernel_basis,
    pivot_step,
    rank,
    rank_of_rows,  # unused here; bound for tracing by module attribute (perfbench/tracer.py)
    solve_columns,
)
from .fan import Fan, cyclic_bergman_fan
from .matroid import Matroid
from .util import dot, primitive


@dataclass(frozen=True)
class NewtonVertex:
    """A vertex u of the Newton polytope, the objective w it minimizes, and A @ u."""

    u: tuple
    w: tuple
    a_degree: tuple
    perturbed: bool = False
    duplicate_of: int | None = None


@dataclass(frozen=True)
class Codim1Cone:
    """A maximal fan cone whose span plus the rowspace of A is a hyperplane."""

    cone_index: int
    normal: tuple  # primitive integer normal of that hyperplane
    qrows: tuple  # integer matrix Q with lambda(x) = Q @ x / denom
    denom: int
    kappa: int  # |det(A^T, rays, e_i)| / |normal_i|, the same for every i in support
    support: tuple  # the directions i with normal_i != 0


@dataclass
class DiscriminantProblem:
    A: IntMat
    m: int
    n: int
    Aperp: IntMat
    matroid: Matroid
    fan: Fan
    codim1_cones: list  # Codim1Cone, ordered by the cones' sorted ray tuples
    lattice_spanned: bool
    a_degree: tuple | None = None

    @cached_property
    def _packed(self) -> _PackedCones:
        return _pack_cones(self)


_LANE_BIAS = 1 << 63  # added to every lane of a packed sum, so no lane borrows


@dataclass(frozen=True)
class _PackedCones:
    """The codim-1 cones as shooting reads them, built on the first shot.

    cols[t] holds coordinate t of every cone's normal and Q rows as signed
    64-bit lanes, cone by cone, the normal before the Q rows.  For a vector v
    with max|v| <= wmax, every lane of sum_t v_t * cols[t] is below 2^63 in
    absolute value; wmax is -1 when no nonzero v qualifies.
    """

    cols: tuple
    bias: int  # 2^63 in every lane
    nbytes: int
    wmax: int


class _Unresolved(Exception):
    """An exact tie survived the current perturbation; retry with a fresh one."""


def setup(A, *, threads: int = 0) -> DiscriminantProblem:
    """Build the fan of the Gale-dual matroid and index its codimension-1 cones.

    Checks full row rank and the all-ones vector in the rowspace, and records
    in lattice_spanned whether the maximal minors of A are coprime, which the
    vertex formula needs (shoot_vertex raises otherwise).  The fan itself is
    computed in dual mode straight from A.  Its codimension-1 cones come from
    one walk over the trie of the cones' sorted ray tuples, one `pivot_step`
    per shared prefix (`_codim1_cones`), and are listed in the walk's order,
    by sorted ray tuple.  Shooting reads them in that order, which is also
    the order they were allocated in.
    """
    if not isinstance(A, IntMat):
        A = IntMat.from_rows(A)
    m, n = A.rows, A.cols
    if (r := rank(A)) != m:
        raise RankError(f"matrix has rank {r} < {m} rows")
    if n - m <= 1:
        raise DegenerateDual("Gale dual has rank <= 1; the fan is lineality only")
    if solve_columns(A.entries, [1] * n) is None:
        raise NoAllOnesRow("the all-ones vector is not in the rowspace")
    g = 0
    for comb in combinations(range(n), m):
        g = gcd(g, det_of_columns([A.columns[c] for c in comb]))
        if g == 1:
            break
    Aperp = integer_kernel_basis(A)
    M = Matroid.from_matrix(A, strict=False).dual()
    fan = cyclic_bergman_fan(M, threads=threads)
    codim1 = _codim1_cones(A, Aperp, fan)
    return DiscriminantProblem(A, m, n, Aperp, M, fan, codim1, g == 1)


def _codim1_cones(A: IntMat, Aperp: IntMat, fan: Fan) -> list:
    """The codim-1 cones, found by one walk over the trie of their sorted ray tuples.

    A node at depth d stands for the first d rays r_0..r_{d-1} of the cones
    below it.  It holds the rows of R = T . Aperp plus a spare column n,
    where T is the q x q fraction-free transform (q = n - m) that takes each
    projected ray phi(r_k) = Aperp . r_k of the prefix to p e_k, p the last
    pivot.  A child puts R . r = T . phi(r) in column n and pivots it into
    row d with one `pivot_step`; a zero step means the prefix's projected
    rays are dependent, and every cone below it is dropped.  At a leaf, row
    q - 1 of T is orthogonal to the cone's q - 1 projected rays, so row q - 1
    of R is normal to the cone's span plus the rowspace of A and fixes kappa
    (below); rows 0..q-2 of R are Q, with Q . r_k = p e_k and Q . a = 0 for
    each row a of A.  Returns the cones in trie order, i.e. by sorted ray tuple.
    """
    n = Aperp.cols
    # kappa in closed form.  N = [A; Aperp] sends A^T to [A A^T; 0], so
    # det N * det(A^T, rays, e_i) = det(A A^T) * det(Phi, Aperp e_i) with Phi
    # the projected rays; T sends (Phi, Aperp e_i) to (p e_0 .. p e_{q-2}, R e_i)
    # and det T = +-p^(q-1), so det(Phi, Aperp e_i) = +-R[q-1][i].  det(A A^T) /
    # det N need not be +-1 (unspanned lattice, unsaturated Aperp): divide exactly.
    gram = det(IntMat.from_rows([[dot(a, b) for b in A.entries] for a in A.entries]))
    det_n = det(IntMat.from_rows([*A.entries, *Aperp.entries]))
    width = Aperp.rows - 1  # rays per cone
    flat = fan.maximal_cones.flat  # ray indices, cone by cone
    out = []
    # (cones below a node, its depth, its rows, its last pivot); children are
    # pushed in descending ray order, so nodes are popped in trie order
    stack = [(range(len(fan.maximal_cones)), 0, [[*row, 0] for row in Aperp.entries], 1)]
    while stack:
        group, depth, rows, prev = stack.pop()
        if depth < width:
            children = {}
            for ci in group:
                children.setdefault(flat[ci * width + depth], []).append(ci)
            for ray in sorted(children, reverse=True):
                vec = fan.rays[ray]
                m = [row[:] for row in rows]
                for row in m:  # entry n held the previous step's column; compress() stops at n
                    row[n] = sum(compress(row, vec))
                if pivot_step(m, depth, n, prev):
                    stack.append((children[ray], depth + 1, m, m[depth][n]))
            continue
        (ci,) = group
        normal = primitive(rows[-1][:n])
        for i in flat[ci * width : ci * width + width]:
            if dot(normal, fan.rays[i]) != 0:
                raise InternalInvariant("normal not orthogonal to a cone ray")
        for row in A.entries:
            if dot(normal, row) != 0:
                raise InternalInvariant("normal not orthogonal to the rowspace")
        if prev == 0:
            raise InternalInvariant("membership denominator is zero")
        support = tuple(i for i, g in enumerate(normal) if g)
        i0 = support[0]
        kappa, rem = divmod(abs(gram * rows[-1][i0]), abs(det_n * normal[i0]))
        if rem or kappa == 0:
            raise InternalInvariant("determinant does not factor through the normal")
        qrows = tuple(tuple(row[:n]) for row in rows[:-1])
        out.append(Codim1Cone(ci, normal, qrows, prev, kappa, support))
    return out


def _pack_lanes(lanes, bias: int) -> int:
    """sum_l lanes[l] * 2^(64 l) for signed 64-bit lanes, in linear time.

    `bias` holds 2^63 in each lane.  XOR with it flips the top bit of each
    two's-complement lane, turning lane x into 2^63 + x; subtracting the bias
    then takes back, for each negative lane, the 2^64 it borrowed from the
    lane above.
    """
    raw = int.from_bytes(array("q", lanes), sys.byteorder)
    return (raw ^ bias) - bias


def _pack_cones(prob: DiscriminantProblem) -> _PackedCones:
    vecs = [vec for cone in prob.codim1_cones for vec in (cone.normal, *cone.qrows)]
    xmax = max((abs(x) for vec in vecs for x in vec), default=1)
    # |lane| <= n * xmax * max|v| <= 2^63 - 1 whenever max|v| <= wmax
    wmax = (_LANE_BIAS - 1) // (prob.n * xmax)
    if wmax == 0:
        return _PackedCones((), 0, 0, -1)
    nbytes = 8 * len(vecs)
    bias = int.from_bytes(_LANE_BIAS.to_bytes(8, sys.byteorder) * len(vecs), sys.byteorder)
    cols = tuple(_pack_lanes([vec[t] for vec in vecs], bias) for t in range(prob.n))
    return _PackedCones(cols, bias, nbytes, wmax)


def _packed_products(packed: _PackedCones, v) -> list:
    acc = packed.bias
    for x, col in zip(v, packed.cols):
        acc += x * col
    # Each biased lane 2^63 + y lies in [1, 2^64); flipping its top bit leaves
    # y in two's complement, which the signed cast reads back.
    acc ^= packed.bias
    return memoryview(acc.to_bytes(packed.nbytes, sys.byteorder)).cast("q").tolist()


def _dot_products(cones, v) -> list:
    return [dot(vec, v) for cone in cones for vec in (cone.normal, *cone.qrows)]


def _inner_products(prob: DiscriminantProblem, v) -> list:
    """normal . v, then Q . v, for every codim-1 cone, concatenated in cone order."""
    packed = prob._packed
    if max(map(abs, v)) > packed.wmax:
        return _dot_products(prob.codim1_cones, v)
    return _packed_products(packed, v)


def _cone_hits(cone, s0, a0, s1, a1):
    """Directions i in the cone's support whose open ray from w + eps*r crosses it.

    Only directions with normal_i != 0 can cross the cone.  Skipping the
    others loses no tie: they raise only when s0 = s1 = 0, and then every
    direction of the support raises as well.  s0 = normal . w and a0 = Q . w;
    s1 and a1 are the same products with the perturbation vector r, all zero
    when there is none.  Raises _Unresolved on any exact tie of the
    (constant, eps) pair.
    """
    nv = cone.normal
    Q = cone.qrows
    D = cone.denom
    hits = []
    for i in cone.support:
        g = nv[i]
        c0 = -s0 * g
        c1 = -s1 * g
        if c0 < 0 or (c0 == 0 and c1 < 0):
            continue
        if c0 == 0 and c1 == 0:
            raise _Unresolved
        sgn = 1 if D * g > 0 else -1
        inside = True
        for j in range(len(Q)):
            qji = Q[j][i]
            l0 = (a0[j] * g - s0 * qji) * sgn
            if l0 > 0:
                continue
            if l0 < 0:
                inside = False
                break
            l1 = (a1[j] * g - s1 * qji) * sgn
            if l1 > 0:
                continue
            inside = False
            if l1 == 0:
                raise _Unresolved
            break
        if inside:
            hits.append(i)
    return hits


def _shoot(prob, w, r):
    u = [0] * prob.n
    width = prob.n - prob.m  # the normal and n - m - 1 rows of Q per cone
    p0 = _inner_products(prob, w)
    p1 = _inner_products(prob, r) if r is not None else [0] * len(p0)
    for b, cone in zip(range(0, len(p0), width), prob.codim1_cones):
        for i in _cone_hits(cone, p0[b], p0[b + 1 : b + width], p1[b], p1[b + 1 : b + width]):
            u[i] += cone.kappa * abs(cone.normal[i])
    return u


def shoot_vertex(prob: DiscriminantProblem, w, *, seed: int = 0) -> NewtonVertex:
    """Vertex of the Newton polytope minimizing u . w, by exact ray shooting.

    The unperturbed pass runs first; any exact tie restarts it with a seeded
    symbolic perturbation.  The A-degree is attached and checked constant
    across the problem's lifetime.
    """
    if not prob.lattice_spanned:
        raise LatticeNotSpanned("vertex formula requires coprime maximal minors")
    w = tuple(map(index, w))  # TypeError on a float or Fraction, never a truncation
    if len(w) != prob.n:
        raise WrongSize(f"objective has {len(w)} entries, not {prob.n}")
    rng = random.Random(seed)
    r = None
    perturbed = False
    for _ in range(64):
        try:
            u = _shoot(prob, w, r)
            break
        except _Unresolved:
            perturbed = True
            r = tuple(rng.randint(-(10**6), 10**6) for _ in range(prob.n))
    else:
        raise InternalInvariant("ties unresolved after 64 perturbations")
    u = tuple(u)
    a_degree = tuple(dot(row, u) for row in prob.A.entries)
    if prob.a_degree is None:
        prob.a_degree = a_degree
    elif prob.a_degree != a_degree:
        raise InternalInvariant(
            f"A-degree changed from {prob.a_degree} to {a_degree}; "
            "the codimension-1 cone family is inconsistent"
        )
    return NewtonVertex(u, w, a_degree, perturbed=perturbed)


def random_vertices(prob: DiscriminantProblem, count: int, seed: int) -> list:
    """Shoot `count` seeded random integer objectives; duplicates are flagged.

    Objectives are uniform in [-10^6, 10^6] per coordinate; each draw also
    fixes the perturbation seed up front so the stream is reproducible whether
    or not ties occur.
    """
    rng = random.Random(seed)
    out = []
    first_seen: dict = {}
    for idx in range(count):
        w = tuple(rng.randint(-(10**6), 10**6) for _ in range(prob.n))
        pseed = rng.getrandbits(32)
        vertex = shoot_vertex(prob, w, seed=pseed)
        prior = first_seen.get(vertex.u)
        if prior is not None:
            vertex = replace(vertex, duplicate_of=prior)
        else:
            first_seen[vertex.u] = idx
        out.append(vertex)
    return out
