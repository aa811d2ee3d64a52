"""Vertices of Newton polytopes of A-discriminants by ray shooting.

The tropicalization of the discriminantal variety of an integer matrix A is
the Minkowski sum of the tropical linear space of the Gale-dual matroid and
the rowspace of A.  Shooting axis rays from a generic objective w and summing
exact determinant weights over the codimension-one cones crossed recovers the
vertex of the Newton polytope minimizing the dot product with w.

Four devices keep this exact and fast:

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
* every inner product a batch of objectives needs (normal . w and Q . w
  for every cone) comes from one pass of exact big-int arithmetic.  Cones
  in one hyperplane share a normal and neighbours share a facet's
  functional up to scale, so each Q row is k times an interned primitive
  form.  Objective l is lane l, L bits wide, of one int per coordinate,
  W_t = sum_l w_l[t] * 2^(L*l), so sum_t form_t * W_t holds form . w_l in
  lane l exactly, as signed lanes; every sign test below is one more exact
  lane-wise sum, read off each lane's top bit after adding 2^(L-1) - 1.  L
  comes from a bound proven before the pass, 2 * max|x| * max |form|_1 *
  max|w| over the forms and the batch, so no lane borrows from its neighbour;
* the ray w + t e_i meets the hyperplane normal . x = 0 at t = -s/g, with
  s = normal . w and g = normal_i, so only the directions whose g has the
  sign opposite to s can cross (s = 0 ties), and the crossing point lies in
  the cone when every (Q_j . w * g - s * Q_ji) * sign(D * g) is positive.
  For Q_j = k * form that is |k| * sigma * (form . w * g - s * form_i), with
  sigma = sign(k * D * g), whose sign flips with g.  So each cone keeps its
  rows once, as ids of the signed forms sign(k * D) * form, and each
  direction (i, |g|, weight) shares column i of every signed form: a row
  test reads P[q] * |g| - s * col[q] > 0 for g > 0 and its negation for
  g < 0, and each lane tests the group its own sign of s picks.

Non-generic objectives are resolved in the same pass by the fixed symbolic
perturbation w + (eps, eps^2, ..., eps^n) (simulation of simplicity,
Edelsbrunner-Muecke 1990): every sign test is of a linear form in w, and an
exact zero takes the sign of the form's first nonzero coefficient.  No form
the shot tests is zero, so nothing is left to chance.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cached_property
from itertools import compress
from operator import index, mul

from .errors import (
    DegenerateDual,
    InternalInvariant,
    LatticeNotSpanned,
    NoAllOnesRow,
    RankError,
    WrongSize,
)
from .exact import IntMat, det, integer_kernel_basis, pivot_step, rank
from .fan import Fan, _require_no_loops_coloops, cyclic_bergman_fan
from .matroid import Matroid
from .util import dot, primitive

OBJECTIVE_RANGE = 10**6  # random objectives are uniform in [-10^6, 10^6]
SHOT_CHUNK = 50  # objectives shot in one pass over the codim-1 cones
# read only by perfbench/tracer.py::EXACT_NAMES, which wraps these names but never calls them
det_of_columns = rank_of_rows = solve_columns = None


class NewtonVertex(
    namedtuple("NewtonVertex", "u w a_degree perturbed duplicate_of", defaults=(False, None))
):
    """A vertex u of the Newton polytope, the objective w it minimizes, and A @ u.

    perturbed: w ties exactly, and u is the vertex of w + (eps, ..., eps^n).
    duplicate_of: the index of the first equal vertex in random_vertices' list.
    """

    __slots__ = ()


class Codim1Cone(namedtuple("Codim1Cone", "cone_index normal qrows denom kappa support")):
    """A maximal fan cone whose span plus the rowspace of A is a hyperplane.

    normal is the primitive integer normal of that hyperplane; qrows is the
    integer matrix Q with lambda(x) = Q @ x / denom, its rows tuples that
    equal rows of other cones share; kappa is |det(A^T, rays, e_i)| /
    |normal_i|, the same for every i in support, the directions i with
    normal_i != 0.
    """

    __slots__ = ()


class DiscriminantProblem:
    """setup's result for A; codim1_cones by sorted ray tuple, a_degree set by the first shot."""

    def __init__(self, A, m, n, Aperp, matroid, fan, codim1_cones, lattice_spanned, a_degree=None):
        self.A, self.m, self.n, self.Aperp = A, m, n, Aperp
        self.matroid, self.fan, self.codim1_cones = matroid, fan, codim1_cones
        self.lattice_spanned, self.a_degree = lattice_spanned, a_degree

    @cached_property
    def _packed(self) -> _PackedCones:
        return _pack_cones(self)


class _PackedCones(namedtuple("_PackedCones", "table forms bound usum")):
    """The codim-1 cones as shooting reads them, built on the first shot.

    forms holds each distinct normal and each distinct primitive form of a Q
    row once; signed form id q >= 0 reads +forms[q] and ~q reads -forms[q].
    table holds, per cone, (nid, ids, (pos_dirs, neg_dirs)): its normal's
    form id; per Q row k * forms[q], the signed id of sigma * forms[q],
    sigma = sign(k * D); and its directions with g = normal_i > 0, then < 0,
    each as (i, |g|, kappa * |g|, col), col holding coordinate i of every
    form.  The g < 0 group reads every row with the opposite sign.  bound
    is 2 * max|x| * max |form|_1 over the forms, so every row test of an
    objective w is below bound * max|w| in absolute value, and usum bounds
    every entry of a vertex.
    """

    __slots__ = ()


def setup(A, *, threads: int = 0, require_spanned: bool = False) -> DiscriminantProblem:
    """Build the fan of the Gale-dual matroid and index its codimension-1 cones.

    Checks full row rank and the all-ones vector in the rowspace, and records
    in lattice_spanned whether the maximal minors of A are coprime, which the
    vertex formula needs: shoot_vertex raises LatticeNotSpanned otherwise, and
    so does setup under require_spanned, before it builds the fan.  Both
    facts come from Aperp, a Z-basis of the integer kernel of A: the
    all-ones vector is in the rowspace iff every row of Aperp sums to 0, and
    the gcd of the maximal minors is det(A A^T) / |det [A; Aperp]|.  The fan is
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
    Aperp = integer_kernel_basis(A)
    if any(map(sum, Aperp.entries)):  # the rowspace of A is the kernel of Aperp
        raise NoAllOnesRow("the all-ones vector is not in the rowspace")
    gram = det(IntMat.from_rows([[dot(a, b) for b in A.entries] for a in A.entries]))
    g, rem = divmod(gram, abs(det(IntMat.from_rows([*A.entries, *Aperp.entries]))))
    if rem:
        raise InternalInvariant("the kernel basis does not span the integer kernel")
    M = Matroid.from_matrix(A, strict=False).dual()
    if require_spanned and g != 1:
        _require_no_loops_coloops(M)  # the fan's own checks come first, as when shooting
        raise LatticeNotSpanned("vertex formula requires coprime maximal minors")
    fan = cyclic_bergman_fan(M, threads=threads)
    codim1 = _codim1_cones(A, Aperp, fan, g)
    return DiscriminantProblem(A, m, n, Aperp, M, fan, codim1, g == 1)


def _codim1_cones(A: IntMat, Aperp: IntMat, fan: Fan, g: int) -> list:
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
    # |det N| is g, the gcd of A's maximal minors (setup), so kappa is g |R[q-1][i]|
    # / |normal_i|, an exact division.
    width = Aperp.rows - 1  # rays per cone
    flat = fan.maximal_cones.flat  # ray indices, cone by cone
    out, intern = [], {}.setdefault  # equal Q rows, normals and supports become one tuple
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
        support = tuple(i for i, x in enumerate(normal) if x)
        i0 = support[0]
        kappa, rem = divmod(g * abs(rows[-1][i0]), abs(normal[i0]))
        if rem or kappa == 0:
            raise InternalInvariant("determinant does not factor through the normal")
        qrows = tuple([intern(q, q) for q in [tuple(row[:n]) for row in rows[:-1]]])
        normal, support = intern(normal, normal), intern(support, support)
        out.append(Codim1Cone(ci, normal, qrows, prev, kappa, support))
    return out


def _pack_cones(prob: DiscriminantProblem) -> _PackedCones:
    # forms: id by form; signs: q or ~q by id() of a Q row k * forms[q], as k > 0 or k < 0
    # (setup interns equal rows, and id() spares hashing them)
    forms, signs = {}, {}
    for cone in prob.codim1_cones:
        forms.setdefault(cone.normal, len(forms))  # unscaled, so s = P[nid]
        for row in cone.qrows:
            if id(row) not in signs:  # primitive once per distinct row; its lead is positive
                q = forms.setdefault(primitive(row), len(forms))
                signs[id(row)] = q if next(filter(None, row)) > 0 else ~q
    columns = list(zip(*forms))  # coordinate t of every form
    table, directions, usum = [], {}, 0
    for cone in prob.codim1_cones:
        # row k * forms[q] reads as sign(k * D) * forms[q]: id q for +, ~q for -
        ids = tuple([signs[id(row)] if cone.denom > 0 else ~signs[id(row)] for row in cone.qrows])
        nid, kappa, normal = forms[cone.normal], cone.kappa, cone.normal
        if (nid, kappa) not in directions:  # shared by the cones of this normal and kappa
            dirs = [(i, abs(normal[i]), kappa * abs(normal[i]), columns[i]) for i in cone.support]
            pos_dirs = tuple(d for d in dirs if normal[d[0]] > 0)
            directions[nid, kappa] = pos_dirs, tuple(d for d in dirs if normal[d[0]] < 0)
        usum += kappa * sum(map(abs, normal))
        table.append((nid, ids, directions[nid, kappa]))
    xmax = max((abs(x) for form in forms for x in form), default=0)
    bound = 2 * xmax * max((sum(map(abs, form)) for form in forms), default=0)
    return _PackedCones(tuple(table), tuple(forms), bound, usum)


def _tie_sign(forms, q, normal, i) -> bool:
    """Whether row q's test for direction i, zero at w, is positive at w + (eps, ..., eps^n).

    The test is the linear form sign(g) * sigma * (g * form - form_i *
    normal), g = normal_i and sigma * form signed form q, so its sign there
    is that of its first nonzero coefficient, the same for every w it ties.
    """
    g = normal[i]
    form = forms[q if q >= 0 else ~q]
    x = next(filter(None, (g * f - form[i] * v for f, v in zip(form, normal))), 0)
    if not x:  # the form is a nonzero multiple of lambda_j at the crossing
        raise InternalInvariant("a membership form vanishes identically")
    return (x > 0) == ((q >= 0) == (g > 0))


def _shoot(packed: _PackedCones, ws: list) -> list:
    """(u, tied) per objective of ws, from one pass: objective l is lane l of every int.

    Lanes are L bits, L such that every s and row test X lies in
    (-2^(L-2), 2^(L-2)) and every u entry below 2^L.  A lane of X +
    2^(L-1) - 1 then borrows nothing and has its top bit set iff X > 0 there.
    """
    wmax = max(abs(x) for w in ws for x in w)
    L = max((packed.bound * wmax).bit_length() + 2, packed.usum.bit_length())
    ones = sum(1 << L * l for l in range(len(ws)))
    top = ones << L - 1  # the top bit of every lane
    low1 = top - ones  # 2^(L-1) - 1 in every lane
    W = [sum(x << L * l for l, x in enumerate(col)) for col in zip(*ws)]
    P = [sum(map(mul, form, W)) for form in packed.forms]  # exact: lane l is form . w_l
    U, tied = [0] * len(W), 0
    for nid, ids, (pos_dirs, neg_dirs) in packed.table:
        S = P[nid]
        ge = (S + top) & top  # lanes with s >= 0 cross along g < 0, the others along g > 0;
        tied |= ge & ~(S + low1)  # s = 0 takes the sign of the (primitive) normal's lead: +
        for alive, dirs, T in ((top ^ ge, pos_dirs, S), (ge, neg_dirs, -S)):
            if not alive:
                continue
            for i, h, weight, col in dirs:  # h = |g|: with T = -s, the g < 0 group tests -X
                a = alive
                for q in ids:
                    if q >= 0:
                        Y = P[q] * h - T * col[q] + low1
                    else:  # -forms[~q]
                        Y = low1 - (P[~q] * h - T * col[~q])
                    b = a & Y
                    if b != a:
                        ties = (a ^ b) & (Y + ones)  # lanes that died on an exact zero
                        if ties:
                            tied |= ties
                            if _tie_sign(packed.forms, q, packed.forms[nid], i):
                                b |= ties
                        a = b
                        if not a:
                            break
                if a:
                    U[i] += weight * (a >> L - 1)
    mask = (1 << L) - 1
    lanes = range(0, L * len(ws), L)
    return [(tuple(x >> k & mask for x in U), bool(tied >> k + L - 1 & 1)) for k in lanes]


def shoot_vertices(prob: DiscriminantProblem, objectives) -> list:
    """Vertices of the Newton polytope minimizing u . w, by exact ray shooting, one per w.

    Up to SHOT_CHUNK objectives share one pass over the codim-1 cones as
    lanes of one int.  An exact tie takes its sign at w + (eps, eps^2, ...,
    eps^n), so a non-generic w gets the vertex of its minimizing face that
    this fixed perturbation picks, flagged `perturbed`.  The A-degree is
    attached and checked constant across the problem's lifetime.
    """
    ws = list(objectives)
    if ws and not prob.lattice_spanned:
        raise LatticeNotSpanned("vertex formula requires coprime maximal minors")
    for k, w in enumerate(ws):
        ws[k] = w = tuple(map(index, w))  # TypeError on a float or Fraction, never a truncation
        if len(w) != prob.n:
            raise WrongSize(f"objective has {len(w)} entries, not {prob.n}")
    out = []
    for start in range(0, len(ws), SHOT_CHUNK):
        chunk = ws[start : start + SHOT_CHUNK]
        for w, (u, tied) in zip(chunk, _shoot(prob._packed, chunk)):
            a_degree = tuple(dot(row, u) for row in prob.A.entries)
            if prob.a_degree is None:
                prob.a_degree = a_degree
            elif prob.a_degree != a_degree:
                raise InternalInvariant(
                    f"A-degree changed from {prob.a_degree} to {a_degree}; "
                    "the codimension-1 cone family is inconsistent"
                )
            out.append(NewtonVertex(u, w, a_degree, perturbed=tied))
    return out


def shoot_vertex(prob: DiscriminantProblem, w) -> NewtonVertex:
    """Vertex of the Newton polytope minimizing u . w: shoot_vertices(prob, [w])[0].

    A call costs 3-5 times a batch lane on line/cubic: give shoot_vertices many objectives.
    """
    return shoot_vertices(prob, [w])[0]


def random_vertices(prob: DiscriminantProblem, count: int, seed: int) -> list:
    """Shoot `count` seeded random integer objectives; duplicates are flagged.

    Objectives are uniform in [-OBJECTIVE_RANGE, OBJECTIVE_RANGE] per
    coordinate; a tied one is resolved by shoot_vertex's fixed perturbation.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, not {count}")
    rng, r = random.Random(seed), OBJECTIVE_RANGE

    def objectives():
        for _ in range(count):
            yield tuple(rng.randint(-r, r) for _ in range(prob.n))
            # drawn and discarded: without it each seed's objectives, and so
            # the pinned CLI streams, would change
            rng.getrandbits(32)

    out, first_seen = [], {}
    for idx, vertex in enumerate(shoot_vertices(prob, objectives())):
        prior = first_seen.setdefault(vertex.u, idx)
        out.append(vertex if prior == idx else vertex._replace(duplicate_of=prior))
    return out
