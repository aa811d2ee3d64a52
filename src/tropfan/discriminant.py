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
* every inner product one objective needs (normal . w and Q . w for every
  cone) comes from one pass of exact big-int arithmetic.  Cones in one
  hyperplane share a normal and neighbours share a facet's functional up to
  scale, so each Q row is k times an interned primitive form, and coordinate
  t of every distinct form is packed into one int as signed lanes; the sum
  over t of w_t times that int, plus 2^(L-1) in every lane, is read back as
  L-bit words.  Each lane equals sum_t w_t * x_t, so |lane| <= n * max|x| *
  max|w|.  The lanes are 32 bits wide when that bound stays below 2^31 for
  every |w| <= 10^6 (the range of random objectives), else 64 bits; a w
  for which it could reach 2^(L-1) takes plain dot products over the forms;
* the ray w + t e_i meets the hyperplane normal . x = 0 at t = -s/g, with
  s = normal . w and g = normal_i, so only the directions whose g has the
  sign opposite to s can cross (s = 0 ties), and the crossing point lies in
  the cone when every (Q_j . w * g - s * Q_ji) * sign(D * g) is positive.
  For Q_j = k * form that is |k| * sigma * (form . w * g - s * form_i), with
  sigma = sign(k * D * g) fixed within each sign of g.  So each cone keeps
  its rows once per sign of g as ids of the signed forms sigma * form, and
  each direction (i, g, weight) shares column i of every signed form: a row
  test reads P[q] * g > s * col[q] over the signed products P, and a shot
  tests one group per cone.

Non-generic objectives are resolved in the same pass by the fixed symbolic
perturbation w + (eps, eps^2, ..., eps^n) (simulation of simplicity,
Edelsbrunner-Muecke 1990): every sign test is of a linear form in w, and an
exact zero takes the sign of the form's first nonzero coefficient.  No form
the shot tests is zero, so nothing is left to chance.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import namedtuple
from functools import cached_property
from itertools import compress
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
    integer_kernel_basis,
    pivot_step,
    rank,
    # tracer-only: unused here, wrapped by module attribute in perfbench/tracer.py
    det_of_columns,
    rank_of_rows,
    solve_columns,
)
from .fan import Fan, _require_no_loops_coloops, cyclic_bergman_fan
from .matroid import Matroid
from .util import dot, primitive

OBJECTIVE_RANGE = 10**6  # random objectives are uniform in [-10^6, 10^6]


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


class _PackedCones(namedtuple("_PackedCones", "cols bias wmax lane table forms")):
    """The codim-1 cones as shooting reads them, built on the first shot.

    forms holds each distinct normal and each distinct primitive form of a Q
    row once, nf of them; signed form id q reads +forms[q] and nf + q reads
    -forms[q].  cols[t] holds coordinate t of every form as signed lanes of
    array typecode `lane`, lane q for form q; bias holds 2^(bits-1) per lane.
    For max|v| <= wmax (-1: no v != 0) each lane of sum_t v_t * cols[t] is
    below 2^(bits-1) in absolute value.  table holds, per cone, (nid, pos,
    neg, (pos_dirs, neg_dirs)): its normal's form id; per Q row k * forms[q],
    the signed id of sigma * forms[q], sigma = sign(k * D * g), for g > 0 and
    for g < 0; and its directions with g = normal_i > 0, then < 0, each as
    (i, g, kappa * |g|, col), col holding coordinate i of every signed form.
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
    nf = len(forms)
    signed = [*range(nf), *reversed(range(nf, 2 * nf))]  # signed[q], signed[~q]: ids of +-forms[q]
    columns = [list(col) + [-x for x in col] for col in zip(*forms)]  # coordinate t of signed forms
    table, directions = [], {}
    for cone in prob.codim1_cones:
        # g > 0 reads row k * forms[q] as sign(k * D) * forms[q], g < 0 as the opposite
        xs = [signs[id(row)] if cone.denom > 0 else ~signs[id(row)] for row in cone.qrows]
        pos, neg = tuple([signed[x] for x in xs]), tuple([signed[~x] for x in xs])
        nid, kappa = forms[cone.normal], cone.kappa
        if (nid, kappa) not in directions:  # shared by the cones of this normal and kappa
            dirs = [(i, cone.normal[i], kappa * abs(cone.normal[i]), columns[i]) for i in cone.support]
            pos_dirs = tuple(d for d in dirs if d[1] > 0)
            directions[nid, kappa] = pos_dirs, tuple(d for d in dirs if d[1] < 0)
        table.append((nid, pos, neg, directions[nid, kappa]))
    forms = tuple(forms)
    xmax = max((abs(x) for form in forms for x in form), default=1)
    # |lane| <= n * xmax * max|v| < 2^(bits-1) for max|v| <= wmax: 32-bit lanes
    # if every random objective (max|v| <= OBJECTIVE_RANGE) fits them, else 64
    for lane in "iq":
        size = array(lane).itemsize
        wmax = ((1 << 8 * size - 1) - 1) // (prob.n * xmax)
        if wmax >= OBJECTIVE_RANGE:
            break
    if wmax == 0:
        return _PackedCones((), 0, -1, lane, tuple(table), forms)
    bias = int.from_bytes((1 << 8 * size - 1).to_bytes(size, sys.byteorder) * nf, sys.byteorder)
    # XOR with the bias maps each two's-complement lane x to 2^(bits-1) + x;
    # subtracting it takes back the 2^bits a negative lane borrowed from the next
    cols = tuple(
        (int.from_bytes(array(lane, [form[t] for form in forms]), sys.byteorder) ^ bias) - bias
        for t in range(prob.n)
    )
    return _PackedCones(cols, bias, wmax, lane, tuple(table), forms)


def _inner_products(prob: DiscriminantProblem, v) -> list:
    """P: form . v for every interned form of the codim-1 cones, then -form . v, by signed id.

    One packed pass when max|v| <= wmax, which random objectives meet
    whenever wmax >= OBJECTIVE_RANGE; plain dot products over the forms otherwise.
    """
    packed = prob._packed
    if max(map(abs, v)) > packed.wmax:
        p = [dot(form, v) for form in packed.forms]
        return p + [-x for x in p]
    bias = acc = packed.bias
    for x, col in zip(v, packed.cols):
        acc += x * col
    # Each biased lane 2^(bits-1) + y lies in [1, 2^bits), and so does the lane
    # 2^(bits-1) - y of 2 * bias - acc; flipping each top bit leaves y and -y in
    # two's complement, which the signed cast reads back.  The top lane holds
    # the bias's highest bit, so its length is the bytes to read.
    nbytes = bias.bit_length() // 8
    data = (acc ^ bias).to_bytes(nbytes, sys.byteorder)
    data += (((bias << 1) - acc) ^ bias).to_bytes(nbytes, sys.byteorder)
    return memoryview(data).cast(packed.lane).tolist()


def _tie_hit(P, s, ids, g, col, forms, normal) -> bool:
    """Whether a direction (g = normal_i, col its column) is hit, once a row ties.

    Rescans the rows in order.  Row q's quantity P[q] * g - s * col[q] is the
    linear form g * sigma * form - col[q] * normal at w, sigma * form being
    signed form q; an exact zero takes the sign of the form's first nonzero
    coefficient, its sign at w + (eps, ..., eps^n).  The first quantity that
    is not positive decides.
    """
    nf = len(forms)
    for q in ids:
        x = P[q] * g - s * col[q]
        if not x:  # the form is a nonzero multiple of lambda_j at the crossing
            form, h = (forms[q], g) if q < nf else (forms[q - nf], -g)
            x = next(filter(None, (h * f - col[q] * v for f, v in zip(form, normal))), 0)
            if not x:
                raise InternalInvariant("a membership form vanishes identically")
        if x < 0:
            return False
    return True


def _shoot(prob, w):
    """(u, tied): the hit weights of w + (eps, ..., eps^n); tied if the scan met an exact tie."""
    u, tied = [0] * prob.n, False
    forms = prob._packed.forms
    P = _inner_products(prob, w)
    for nid, ids, neg, dirs in prob._packed.table:  # ids, dirs[0]: the group g > 0
        s = P[nid]
        if s < 0:
            dirs = dirs[0]
        else:  # a zero s takes the sign of the (primitive) normal's lead: +
            tied = tied or not s
            ids, dirs = neg, dirs[1]
        for i, g, weight, col in dirs:
            for q in ids:
                if P[q] * g <= s * col[q]:
                    if P[q] * g == s * col[q]:
                        tied = True
                        if _tie_hit(P, s, ids, g, col, forms, forms[nid]):
                            u[i] += weight
                    break
            else:
                u[i] += weight
    return u, tied


def shoot_vertex(prob: DiscriminantProblem, w) -> NewtonVertex:
    """Vertex of the Newton polytope minimizing u . w, by exact ray shooting.

    One pass; an exact tie takes its sign at w + (eps, eps^2, ..., eps^n), so
    a non-generic w gets the vertex of its minimizing face that this fixed
    perturbation picks, flagged `perturbed`.  The A-degree is attached and
    checked constant across the problem's lifetime.
    """
    if not prob.lattice_spanned:
        raise LatticeNotSpanned("vertex formula requires coprime maximal minors")
    w = tuple(map(index, w))  # TypeError on a float or Fraction, never a truncation
    if len(w) != prob.n:
        raise WrongSize(f"objective has {len(w)} entries, not {prob.n}")
    u, tied = _shoot(prob, w)
    u = tuple(u)
    a_degree = tuple(dot(row, u) for row in prob.A.entries)
    if prob.a_degree is None:
        prob.a_degree = a_degree
    elif prob.a_degree != a_degree:
        raise InternalInvariant(
            f"A-degree changed from {prob.a_degree} to {a_degree}; "
            "the codimension-1 cone family is inconsistent"
        )
    return NewtonVertex(u, w, a_degree, perturbed=tied)


def random_vertices(prob: DiscriminantProblem, count: int, seed: int) -> list:
    """Shoot `count` seeded random integer objectives; duplicates are flagged.

    Objectives are uniform in [-OBJECTIVE_RANGE, OBJECTIVE_RANGE] per
    coordinate; a tied one is resolved by shoot_vertex's fixed perturbation.
    """
    rng = random.Random(seed)
    out = []
    first_seen: dict = {}
    for idx in range(count):
        w = tuple(rng.randint(-OBJECTIVE_RANGE, OBJECTIVE_RANGE) for _ in range(prob.n))
        # drawn and discarded: without it each seed's objectives, and so the
        # pinned CLI streams, would change
        rng.getrandbits(32)
        vertex = shoot_vertex(prob, w)
        prior = first_seen.setdefault(vertex.u, idx)
        if prior != idx:
            vertex = vertex._replace(duplicate_of=prior)
        out.append(vertex)
    return out
