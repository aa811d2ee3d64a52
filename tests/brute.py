"""Brute-force oracles for the test suite.

Everything here is implemented from definitions, independently of the package
code paths it checks: plain Gaussian elimination over Fraction instead of
the fraction-free core, subset enumeration instead of incidence tricks,
deletion-contraction instead of activities, total-order enumeration instead
of the pair recursion, caterpillar trees and mask-by-mask ray lists instead
of the table-built ray-index rows, a scan over every circuit for tropical
membership, a phase-one simplex for cone membership, per-cone dot products
over every direction instead of packed lanes for ray shooting, one
objective at a time with plain dot products instead of lanes of one int
(`scalar_shoot`), and every
basis's weight at a cone's witness instead of tight-basis bitsets for
Bergman classes, a reduction plus an adjugate per cone instead of the
trie walk for the codim-1 cones, and the gcd of the maximal minors, minor by
minor, and the rref's kernel vectors instead of the Hermite-form kernel
basis, and one join per cone instead of the CLI's block-joined MAXCONES
body.  The paper's proof that the cones cover trop(M) once each
is here too: compatible pairs as plain tuples, the local tropical linear
space around a basis, and the pair a point induces.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, isqrt, prod
from operator import mul
from typing import NamedTuple

from tropfan.errors import InternalInvariant, WrongSize
from tropfan.exact import IntMat, det, gauss_jordan, integer_kernel_basis, pivot_step
from tropfan.fan import _regressive_pairs
from tropfan.matroid import Matroid
from tropfan.util import elements_of, mask_of, mask_to_vector, primitive


def rank_of_rows(rows) -> int:
    """Rank of integer row vectors by the package's own core: a helper, not an oracle."""
    return len(gauss_jordan([list(r) for r in rows])[0])


def det_of_columns(cols) -> int:
    """Determinant of a square matrix given by its columns (det(M^T) = det(M))."""
    return det(IntMat.from_rows(cols))


def frac_rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    rank = 0
    used = [False] * len(rows)
    for c in range(len(rows[0])):
        piv = next((i for i in range(len(rows)) if not used[i] and rows[i][c] != 0), None)
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        for i in range(len(rows)):
            if i != piv and rows[i][c] != 0:
                f = rows[i][c] / rows[piv][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv])]
    return rank


def frac_rref(vectors):
    """Reduced row echelon form over Fraction, zero rows dropped.

    Canonical for the rowspace: two matrices have equal rowspace iff their
    frac_rref outputs are equal.
    """
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def columns_of(A):
    """Column vectors of an IntMat (or row-list), 0-indexed list of tuples."""
    rows = A.entries if hasattr(A, "entries") else tuple(map(tuple, A))
    return list(zip(*rows))


def handle_columns(M: Matroid):
    """Columns representing the handle's matroid: of A, or of a Gale dual in dual mode."""
    return columns_of(integer_kernel_basis(M.A) if M.dual_mode else M.A)


def independent(cols, S):
    vecs = [cols[i - 1] for i in S]
    return frac_rank(vecs) == len(vecs)


def brute_rank(cols, S):
    return frac_rank([cols[i - 1] for i in S])


def brute_fundamental_circuit(cols, e, B):
    """{e} plus the basis elements whose exchange with e stays independent."""
    out = [e]
    for i in B:
        T = tuple(x for x in B if x != i) + (e,)
        if independent(cols, T):
            out.append(i)
    return tuple(sorted(out))


def reduce_on_columns(m: list[list[int]], cols) -> None:
    """Pivot the integer rows m in place on the 0-based columns cols, in order.

    One pivot_step per column, each dividing by the previous pivot; raises
    ValueError if the columns are linearly dependent.
    """
    prev = 1
    for r, c in enumerate(cols):
        if not pivot_step(m, r, c, prev):
            raise ValueError(f"columns {list(cols)} are linearly dependent")
        prev = m[r][c]


def lex_bases_and_masks(M: Matroid):
    """(B, fundamental_circuit_masks(B)) over every basis, as computed before the walk.

    Every rank-subset S in lexicographic order is kept iff the columns of S
    (of its complement U in dual mode) have rank m, and each basis gets one
    fresh reduction on the pivot columns U, read off row by row.
    """
    out = []
    cols = M.A.columns
    for S in combinations(range(1, M.n + 1), M.rank):
        U = tuple(i for i in range(1, M.n + 1) if i not in S) if M.dual_mode else S
        if rank_of_rows([cols[c - 1] for c in U]) != M.m:
            continue
        rows = M.A.row_lists()
        reduce_on_columns(rows, [c - 1 for c in U])
        query = S if M.dual_mode else [k for k in range(1, M.n + 1) if k not in S]
        incidence = {(k, U[r]) for k in query for r in range(M.m) if rows[r][k - 1]}
        if M.dual_mode:
            masks = {b: sum(1 << (k - 1) for k, u in incidence if u == b) for b in U}
        else:
            masks = {k: sum(1 << (u - 1) for j, u in incidence if j == k) for k in query}
        out.append((S, masks))
    return out


def brute_circuits(cols):
    """Minimal dependent subsets, by exhaustive enumeration."""
    n = len(cols)
    out = []
    for size in range(1, n + 1):
        for S in combinations(range(1, n + 1), size):
            if independent(cols, S):
                continue
            if all(independent(cols, S[:i] + S[i + 1 :]) for i in range(size)):
                out.append(S)
    return sorted(out)


def brute_closure(cols, S):
    n = len(cols)
    r = brute_rank(cols, S)
    inside = set(S)
    return tuple(
        i
        for i in range(1, n + 1)
        if i in inside or brute_rank(cols, tuple(S) + (i,)) == r
    )


def brute_flats(cols):
    n = len(cols)
    out = set()
    for mask in range(1 << n):
        S = tuple(i + 1 for i in range(n) if mask >> i & 1)
        if brute_closure(cols, S) == S:
            out.add(S)
    return out


def brute_cyclic_flats(cols):
    """Flats that equal a union of circuits (the empty union allows the empty flat)."""
    circuits = [set(c) for c in brute_circuits(cols)]
    out = set()
    for F in brute_flats(cols):
        fset = set(F)
        union = set()
        for c in circuits:
            if c <= fset:
                union |= c
        if union == fset:
            out.add(F)
    return out


def closure_cyclic_flats(cols) -> dict:
    """Cyclic flats as bitmask -> rank, each found as the span of an independent set.

    A flat of rank k < r(E) is cl(S) for every independent k-subset S of it:
    the columns orthogonal to the integer kernel of S's rows.  Every such S is
    tried, and a flat is cyclic iff removing any one element keeps its rank.
    E itself is added when it is cyclic.  This visits the subsets of size
    below r(E) only, so it reaches n = 20 at rank 5, where brute_cyclic_flats'
    scan over all 2^n subsets does not.
    """
    n, m = len(cols), rank_of_rows(cols)

    def cyclic(mask, r):
        return all(
            rank_of_rows([cols[y] for y in range(n) if y != x and mask >> y & 1]) == r
            for x in range(n)
            if mask >> x & 1
        )

    candidates = {(sum(1 << x for x in range(n) if not any(cols[x])), 0), ((1 << n) - 1, m)}
    for k in range(1, m):
        for S in combinations(range(n), k):
            K = integer_kernel_basis(IntMat.from_rows(cols[x] for x in S)).entries
            if len(K) == m - k:  # S is independent
                span = [x for x in range(n) if not any(_dot(y, cols[x]) for y in K)]
                candidates.add((sum(1 << x for x in span), k))
    return {mask: r for mask, r in candidates if cyclic(mask, r)}


def expected_ray_supports(cols):
    """Proper nonempty flats that are cyclic or singletons."""
    n = len(cols)
    cyclic = brute_cyclic_flats(cols)
    out = set()
    for F in brute_flats(cols):
        if 0 < len(F) < n and (len(F) == 1 or F in cyclic):
            out.add(frozenset(F))
    return out


def fan_rays_are_cyclic_flats(fan, M) -> bool:
    """Exact two-sided check: ray supports == proper nonempty flats that are cyclic or singletons."""
    if M.n > 14:
        raise ValueError("brute-force flat enumeration is limited to n <= 14")
    supports = {frozenset(fan.ray_support(i)) for i in range(len(fan.rays))}
    return supports == expected_ray_supports(handle_columns(M))


def is_in_trop(M: Matroid, v) -> bool:
    """True iff every circuit attains its coordinate minimum at least twice."""
    if len(v) != M.n:
        raise WrongSize(f"vector length {len(v)} != {M.n}")
    for circuit in M.circuits():
        values = [v[i - 1] for i in circuit]
        lo = min(values)
        if values.count(lo) < 2:
            return False
    return True


# -- compatible pairs and the local criterion ---------------------------------


class Pair(NamedTuple):
    """A basis, a regressive preference function, and a total order on its image.

    pref lists (k, p(k)) with k ascending over the non-basis elements; order
    lists the image of p from smallest to largest.
    """

    basis: tuple
    pref: tuple
    order: tuple


def chain_pair(B, chain) -> Pair:
    """The pair a chain of (block, cover) slots over basis B stands for.

    Slot b's block is {b} + p^-1(b), b its lowest bit, and the slots run up
    the order.
    """
    order = tuple((block & -block).bit_length() for block, _ in chain)
    pref = [
        (k, b)
        for b, (block, _) in zip(order, chain)
        for k in elements_of(block & (block - 1))
    ]
    return Pair(tuple(B), tuple(sorted(pref)), order)


def interior_witness(fan, ci) -> tuple:
    """Sum of the ray vectors of cone ci: a point of its relative interior."""
    rays = [fan.rays[i] for i in fan.maximal_cones[ci]]
    return tuple(map(sum, zip((0,) * fan.n, *rays)))


def is_in_local_trop(M: Matroid, B, v) -> bool:
    """Whether B has maximal v-weight and v is in the local tropical space around B.

    For such a B, v lies in trop(M) iff every fundamental circuit over B
    attains its minimum of v at least twice.
    """
    weight = sum(v[i - 1] for i in B)
    if any(sum(v[i - 1] for i in other) > weight for other in M.bases):
        return False
    for k, mask in M.fundamental_circuit_masks(B).items():
        values = [v[k - 1]] + [v[i - 1] for i in elements_of(mask)]
        if values.count(min(values)) < 2:
            return False
    return True


def local_trop_point(M: Matroid, B, x) -> tuple:
    """x on the basis (B sorted), and the minimum of x over F_k at each non-basis k.

    The piecewise-linear parametrization of the local tropical space around B.
    """
    on_basis = dict(zip(B, x))
    fmask = M.fundamental_circuit_masks(B)
    return tuple(
        on_basis[i] if i in on_basis else min(map(on_basis.get, elements_of(fmask[i])))
        for i in range(1, M.n + 1)
    )


def induce_pair(M: Matroid, B, v) -> Pair:
    """The pair v induces over B, ordered by v with ties by index.

    p(k) is the first element of F_k in that order, and the pair's order is
    that order on the image of p.
    """
    J = sorted(B, key=lambda b: (v[b - 1], b))
    fmask = M.fundamental_circuit_masks(B)
    pref = tuple(
        (k, next(b for b in J if fk >> (b - 1) & 1)) for k, fk in sorted(fmask.items())
    )
    image = {b for _, b in pref}
    return Pair(tuple(B), pref, tuple(b for b in J if b in image))


def _cone_masks(bmask, chain):
    """Ray bitmasks of the cone of one pair, read off its chain of slots.

    The caterpillar tree's spine is the chain; a basis element outside the
    image hangs off the topmost slot whose cover holds it.  The rays are the
    up-sets of the spine slots but the bottom one, whose up-set is
    everything, plus one singleton ray per basis element outside the image.
    This is the mask-by-mask oracle for the ray-index rows that
    tropfan.fan._basis_blocks builds.
    """
    rays = []
    acc = image = 0
    for block, cover in reversed(chain):
        acc |= block | cover
        image |= block
        rays.append(acc)
    un = bmask & ~acc
    if un:
        raise InternalInvariant(
            f"elements {list(elements_of(un))} attach to no block; matroid has a coloop"
        )
    rays.pop()  # the bottom slot's up-set is everything
    leftovers = bmask & ~image
    while leftovers:
        low = leftovers & -leftovers
        rays.append(low)
        leftovers ^= low
    if len(rays) != bmask.bit_count() - 1:
        raise InternalInvariant("cone does not have rank-1 rays")
    return rays


def enumerated_ray_masks(M: Matroid) -> set:
    """Every ray bitmask carried by a cone of the pair enumeration, deduplicated.

    The ray set as enumeration alone finds it: _cone_masks over every
    regressive pair of every basis, with no cyclic-flat computation.
    """
    out = set()
    for B in M.bases:
        for chain in _regressive_pairs(M.fundamental_circuit_masks(B)):
            out.update(_cone_masks(mask_of(B), chain))
    return out


def fan_text(M: Matroid, fan, reports=False, classes=None) -> str:
    """The CLI's fan-mode output for a stored fan, written cone by cone.

    The per-cone writer the CLI used before it streamed the body: one
    " ".join per cone over fan.maximal_cones (a rank-1 cone gives an empty
    line).  reports adds BASES, CIRCUITS and TUTTE; classes adds BERGMAN.
    """
    lines = [f"n {M.n}", f"m {M.rank}", f"rays {len(fan.rays)}"]
    lines.append(f"maxcones {len(fan.maximal_cones)}")
    if reports:
        lines += ["BASES", *(" ".join(map(str, B)) for B in M.bases)]
        lines += ["CIRCUITS", *(" ".join(map(str, C)) for C in M.circuits())]
        tutte = sorted(M.tutte_polynomial().items())
        lines += ["TUTTE", *(f"x^{i} y^{j} : {c}" for (i, j), c in tutte)]
    lines += ["RAYS", *(" ".join(map(str, ray)) for ray in fan.rays)]
    lines += ["MAXCONES", *(" ".join(map(str, cone)) for cone in fan.maximal_cones)]
    if classes is not None:
        lines += ["BERGMAN", *(" ".join(map(str, cls)) for cls in classes)]
    return "\n".join(lines) + "\n"


def bergman_classes_by_weight(fan, M: Matroid):
    """Bergman classes by weight: cones grouped by their witness's max-weight bases.

    The witness w of a cone is the sum of its ray vectors, and basis B weighs
    sum(w[i - 1] for i in B) exactly; classes come in order of their first
    cone.  All the weights of one witness are summed at once in byte lanes of
    one big int: lane j of lanes[i] is 1 iff element i + 1 lies in basis j.
    Each w[i] counts at most rank - 1 rays, so a weight is at most
    rank * (rank - 1).
    """
    bases = M.bases
    if M.rank * (M.rank - 1) > 255:
        raise ValueError("basis weights would overflow a byte lane")
    lanes = [
        int.from_bytes(bytes(i in B for B in bases), "little")
        for i in range(1, M.n + 1)
    ]
    groups = {}
    for ci in range(len(fan.maximal_cones)):
        w = interior_witness(fan, ci)
        packed = sum(x * lane for x, lane in zip(w, lanes))
        weights = packed.to_bytes(len(bases), "little")
        top = max(weights)
        key, j = [], weights.find(top)
        while j >= 0:
            key.append(j)
            j = weights.find(top, j + 1)
        groups.setdefault(tuple(key), []).append(ci)
    return tuple(map(tuple, groups.values()))


def _contract(e, rest):
    piv = next(i for i, x in enumerate(e) if x != 0)
    out = []
    for v in rest:
        f = Fraction(v[piv], e[piv])
        w = [Fraction(a) - f * Fraction(b) for a, b in zip(v, e)]
        w.pop(piv)
        out.append(tuple(w))
    return tuple(out)


def brute_tutte(cols):
    """Tutte polynomial by deletion-contraction; returns {(i, j): coeff}."""

    def rec(cs):
        if not cs:
            return {(0, 0): 1}
        e, rest = cs[0], cs[1:]
        if all(x == 0 for x in e):
            return {(i, j + 1): c for (i, j), c in rec(rest).items()}
        if frac_rank(list(rest)) < frac_rank(list(cs)):
            sub = rec(_contract(e, rest))
            return {(i + 1, j): c for (i, j), c in sub.items()}
        out = dict(rec(rest))
        for key, c in rec(_contract(e, rest)).items():
            out[key] = out.get(key, 0) + c
        return out

    return rec(tuple(map(tuple, cols)))


def tutte_eval(coeffs, x, y):
    """The Tutte polynomial {(i, j): coeff} evaluated at (x, y)."""
    return sum(c * x**i * y**j for (i, j), c in coeffs.items())


def eq2_determinant(prob, cone, i) -> int:
    """|det| of (A^T columns, the cone's rays, e_i), computed directly for one i."""
    cols = list(prob.A.entries)
    cols += [prob.fan.rays[j] for j in prob.fan.maximal_cones[cone.cone_index]]
    e = [0] * prob.n
    e[i] = 1
    cols.append(tuple(e))
    return abs(det_of_columns(cols))


def maximal_minor_gcd(A) -> int:
    """The gcd of the maximal minors of a full-row-rank IntMat, minor by minor."""
    g = 0
    for comb in combinations(range(A.cols), A.rows):
        g = gcd(g, det_of_columns([A.columns[c] for c in comb]))
        if g == 1:
            break
    return g


def kernel_rows(m: list[list[int]], pivots) -> list[tuple[int, ...]]:
    """Primitive kernel vectors, one per free column, of rows reduced by `gauss_jordan`.

    For a free column f the vector has p at f and -m[r][f] at pivots[r],
    which is p times the rational kernel vector read off the rref.
    """
    p = m[0][pivots[0]] if pivots else 1
    out = []
    for f in range(len(m[0])):
        if f in pivots:
            continue
        vec = [0] * len(m[0])
        vec[f] = p
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        out.append(primitive(vec))
    return out


def adjugate(rows) -> tuple[list[list[int]], int]:
    """(adj(W), det(W)) of a nonsingular square integer matrix W.

    One reduction of [W | I] leaves p * W^-1 in the right block, and
    adj(W) = det(W) * W^-1 with det(W) = +-p.
    """
    k = len(rows)
    m = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    pivots, d = gauss_jordan(m)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    s = 1 if d == m[0][0] else -1
    return [[s * x for x in row[k:]] for row in m], d


def codim1_oracle(prob) -> list:
    """(cone index, normal, Q, denominator) of each codim-1 cone, cone by cone.

    Each maximal cone's projected rays get one full reduction; a cone whose
    rays stay independent takes its normal from a kernel vector of that
    reduction, and Q = adj(W) . Aperp restricted to the reduction's pivot
    coordinates, W being the projected rays on those coordinates.
    """
    q = prob.n - prob.m
    phi = [tuple(_dot(row, ray) for row in prob.Aperp.entries) for ray in prob.fan.rays]
    aperp_cols = list(zip(*prob.Aperp.entries))
    out = []
    for ci, cone in enumerate(prob.fan.maximal_cones):
        proj = [list(phi[i]) for i in cone]
        sel, _ = gauss_jordan(proj)
        if len(sel) != q - 1:
            continue
        y = kernel_rows(proj, sel)[0]
        normal = primitive([_dot(y, col) for col in aperp_cols])
        adj, d = adjugate([[phi[i][t] for i in cone] for t in sel])
        cols = list(zip(*(prob.Aperp.entries[t] for t in sel)))
        qrows = tuple(tuple(_dot(row, col) for col in cols) for row in adj)
        out.append((ci, normal, qrows, d))
    return out


def codim1_lane_bits(prob) -> int:
    """The lane width L the codim-1 walk proves from Hadamard's inequality, restated.

    Every entry of the walk is a minor of order at most q of [Aperp | Phi],
    Phi the projected rays; so it is at most the product of the q largest
    column norms, below H = isqrt(the product of their squares) + 1, and
    L = bitlen(H) + 2 puts it below 2^(L-2).
    """
    q = prob.Aperp.rows
    cols = [list(col) for col in zip(*prob.Aperp.entries)]
    cols += [[_dot(row, ray) for row in prob.Aperp.entries] for ray in prob.fan.rays]
    squares = sorted((_dot(col, col) for col in cols), reverse=True)[:q]
    return (isqrt(prod(squares)) + 1).bit_length() + 2


def cofactor_det(rows):
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def brute_regressive_pairs(cols, B):
    """Regressive compatible pairs over B straight from the definition.

    Every total order J on B induces a preference function; keep the
    regressive ones together with J restricted to the image.  Returned as a
    set of (sorted (k, p(k)) tuple, image-in-order tuple).
    """
    n = len(cols)
    Bs = tuple(sorted(B))
    outside = [k for k in range(1, n + 1) if k not in set(Bs)]
    fk = {
        k: [b for b in brute_fundamental_circuit(cols, k, Bs) if b != k]
        for k in outside
    }
    found = set()
    for J in permutations(Bs):
        position = {b: i for i, b in enumerate(J)}
        p = {k: min(fk[k], key=position.__getitem__) for k in outside}
        if all(p[k] < k for k in outside):
            image = sorted(set(p.values()), key=position.__getitem__)
            found.add((tuple(sorted(p.items())), tuple(image)))
    return found


def literal_pairs(cols, B):
    """Pair enumeration looping over every order extension and testing it in place.

    Same output set as the shipped recursion, which precomputes the feasible
    slot range instead of testing each extension; this is the unoptimized loop
    nest the optimized one must match.
    """
    n = len(cols)
    Bs = tuple(sorted(B))
    outside = [k for k in range(1, n + 1) if k not in set(Bs)]
    fk = {
        k: set(brute_fundamental_circuit(cols, k, Bs)) - {k} for k in outside
    }
    results = set()

    def rec(idx, p, chain):
        if idx == len(outside):
            results.add((tuple(sorted(p.items())), chain))
            return
        k = outside[idx]
        imaged = [c for c in chain if c in fk[k]]
        if imaged:
            rec(idx + 1, {**p, k: imaged[0]}, chain)
        for b in sorted(fk[k] - set(chain)):
            if b >= k:
                continue
            for s in range(len(chain) + 1):
                chain2 = chain[:s] + (b,) + chain[s:]
                pos = {c: i for i, c in enumerate(chain2)}
                if any(
                    b in fk[l] and pos[b] < pos[p[l]] for l in outside[:idx]
                ):
                    continue
                if any(pos[c] < pos[b] for c in imaged):
                    continue
                rec(idx + 1, {**p, k: b}, chain2)

    rec(0, {}, ())
    return results


def pair_key(pair):
    """Canonical (pref, order) key of a Pair for set comparison."""
    return (tuple(sorted(pair.pref)), pair.order)


# -- caterpillar trees --------------------------------------------------------
#
# The cone of a compatible pair built through its caterpillar tree, the
# construction the paper states; _cone_masks above and the package's
# _basis_blocks fuse these steps.


@dataclass(frozen=True)
class CaterpillarTree:
    """Directed caterpillar tree cutting out the cone of one compatible pair.

    blocks partition the ground set, one block {b} + p^-1(b) per basis
    element; the spine lists the non-singleton block representatives in order;
    each remaining singleton hangs off its spine parent.
    """

    n: int
    basis: tuple
    blocks: tuple
    spine: tuple
    leaf_parent: tuple


def build_tree(M: Matroid, pair: Pair) -> CaterpillarTree:
    """Caterpillar tree of a compatible pair.

    Each singleton block {c} attaches to the order-largest image element b
    with some k in p^-1(b) whose fundamental circuit contains c; such a b
    exists exactly because the matroid has no coloops.
    """
    fmask = M.fundamental_circuit_masks(pair.basis)
    chain = pair.order
    members = {b: [b] for b in pair.basis}
    cover = {c: 0 for c in chain}
    for k, b in pair.pref:
        members[b].append(k)
        cover[b] |= fmask[k]
    leaf_parent = []
    for c in pair.basis:
        if c in cover:
            continue
        cbit = 1 << (c - 1)
        parent = next((b for b in reversed(chain) if cover[b] & cbit), None)
        if parent is None:
            raise InternalInvariant(f"element {c} attaches to no block")
        leaf_parent.append((c, parent))
    blocks = tuple(tuple(sorted(members[b])) for b in pair.basis)
    return CaterpillarTree(M.n, pair.basis, blocks, chain, tuple(leaf_parent))


def cone_from_tree(tree: CaterpillarTree):
    """0/1 ray vectors of the cone cut out by a caterpillar tree.

    For every block the indicator of its up-set is a generator; the bottom
    spine block generates the all-ones lineality vector and is dropped,
    leaving exactly rank-1 rays.
    """
    block_of = {}
    for block in tree.blocks:
        for e in block:
            block_of[e] = block
    spine_members = {b: mask_of(block_of[b]) for b in tree.spine}
    attach = {b: 0 for b in tree.spine}
    for c, parent in tree.leaf_parent:
        attach[parent] |= 1 << (c - 1)
    masks = []
    acc = 0
    suffix = []
    for b in reversed(tree.spine):
        acc |= spine_members[b] | attach[b]
        suffix.append(acc)
    suffix.reverse()
    masks.extend(suffix[1:])
    for c, _ in sorted(tree.leaf_parent):
        masks.append(1 << (c - 1))
    return tuple(mask_to_vector(m, tree.n) for m in masks)


# -- exact cone membership ----------------------------------------------------
#
# Free variables are eliminated by Gaussian pivots; the remaining
# sign-constrained system goes through a phase-one simplex over Fractions with
# Bland's rule, so termination is guaranteed and every comparison is exact.


def _phase1_feasible(rows, rhs) -> bool:
    m = len(rows)
    p = len(rows[0]) if m else 0
    tableau = []
    for i in range(m):
        r = list(rows[i])
        b = rhs[i]
        if b < 0:
            r = [-x for x in r]
            b = -b
        row = r + [Fraction(0)] * m + [b]
        row[p + i] = Fraction(1)
        tableau.append(row)
    basis = [p + i for i in range(m)]
    width = p + m
    z = [sum(tableau[i][j] for i in range(m)) for j in range(width + 1)]
    for j in range(p, width):
        z[j] -= 1
    while True:
        enter = next((j for j in range(width) if z[j] > 0), None)
        if enter is None:
            return z[width] == 0
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][width] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:  # pragma: no cover - phase-1 objective is bounded below
            raise RuntimeError("unbounded phase-1 problem")
        prow = tableau[leave]
        piv = prow[enter]
        tableau[leave] = [x / piv for x in prow]
        prow = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], prow)]
        if z[enter] != 0:
            f = z[enter]
            z = [a - f * b for a, b in zip(z, prow)]
        basis[leave] = enter


def nonneg_combination_exists(nonneg_cols, free_cols, rhs) -> bool:
    """Decide rhs = sum(lambda_i * nonneg_cols[i]) + sum(mu_j * free_cols[j]), lambda >= 0."""
    neq = len(rhs)
    p = len(nonneg_cols)
    q = len(free_cols)
    aug = [
        [Fraction(nonneg_cols[j][i]) for j in range(p)]
        + [Fraction(free_cols[j][i]) for j in range(q)]
        + [Fraction(rhs[i])]
        for i in range(neq)
    ]
    active = list(range(neq))
    for fj in range(p, p + q):
        pivot = next((i for i in active if aug[i][fj] != 0), None)
        if pivot is None:
            continue
        active.remove(pivot)
        prow = aug[pivot]
        for i in active:
            c = aug[i][fj]
            if c:
                f = c / prow[fj]
                aug[i] = [a - f * b for a, b in zip(aug[i], prow)]
    rows = [[aug[i][j] for j in range(p)] for i in active]
    rhs2 = [aug[i][-1] for i in active]
    if not rows:
        return True
    return _phase1_feasible(rows, rhs2)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def scalar_ray_hits(prob, w, perturbed=False):
    """(cone position, direction) pairs whose axis ray from w crosses the cone.

    None instead on any exact tie.  Per-cone dot products, every cone and
    every direction examined.  With perturbed, the ray starts at
    w + (eps, eps^2, ..., eps^n) instead: every quantity is the tuple (its
    value at w, *its coefficients in w), compared lexicographically, and no
    tie can occur.  The ray w + t*e_i meets the hyperplane normal . x = 0 at
    t = -s/g (s = normal . w, g = normal_i), and the crossing point lies in
    the cone when every coordinate of Q x / D is positive, that is when every
    (Q_j . w * g - s * Q_ji) * sign(g * D) is.  Scanning those in row order,
    the first that is not positive decides: negative means outside, zero is
    a tie.  s = 0 is a tie in every direction.
    """

    def form(vec):
        return (_dot(vec, w), *vec) if perturbed else (_dot(vec, w),)

    zero = form((0,) * len(w))
    hits = []
    for pos, cone in enumerate(prob.codim1_cones):
        s = form(cone.normal)
        if s == zero:
            return None
        a = [form(qr) for qr in cone.qrows]
        for i, g in enumerate(cone.normal):
            if g == 0 or tuple(x * g for x in s) > zero:
                continue  # parallel, or crossing at t < 0
            sgn = 1 if cone.denom * g > 0 else -1
            for aj, qr in zip(a, cone.qrows):
                lam = tuple((x * g - y * qr[i]) * sgn for x, y in zip(aj, s))
                if lam == zero:
                    return None
                if lam < zero:
                    break
            else:
                hits.append((pos, i))
    return hits


def scalar_shoot(prob, w):
    """(u, tied): the hits of w + (eps, ..., eps^n) over the packed table, one objective at a time.

    The scalar shot that lane-parallel shooting replaced: p holds each
    form's product with w, by plain dot products, and signed form id q
    reads +forms[q] for q >= 0 and -forms[~q] otherwise.  Each cone tests
    the sign group its s picks (s = 0 takes the normal's positive lead):
    for g > 0 the table's signed ids, for g < 0 the opposite ones.  A row
    test reads P_q * g - s * col_q in the cone's row order, and the first
    that is not positive decides; an exact zero sets tied and rescans the
    rows with each zero replaced by the perturbation's sign.
    """
    packed = prob._packed
    forms = packed.forms
    p = [sum(map(mul, form, w)) for form in forms]
    u, tied = [0] * prob.n, False
    for nid, pos, (pos_dirs, neg_dirs) in packed.table:
        normal, s = forms[nid], p[nid]
        if s < 0:
            ids, dirs = pos, pos_dirs
        else:
            tied = tied or not s
            ids, dirs = [~q for q in pos], neg_dirs
        for i, _, weight, col in dirs:
            g = normal[i]
            for q in ids:
                pq, cq = (p[q], col[q]) if q >= 0 else (-p[~q], -col[~q])
                if pq * g <= s * cq:
                    if pq * g == s * cq:
                        tied = True
                        if _scalar_tie_hit(p, s, ids, g, col, forms, normal):
                            u[i] += weight
                    break
            else:
                u[i] += weight
    return tuple(u), tied


def _scalar_tie_hit(p, s, ids, g, col, forms, normal) -> bool:
    """Whether a direction (g = normal_i, col its column) is hit, once a row ties.

    Rescans the rows in order.  Row q's quantity sigma * (p[f] * g - s *
    col[f]), sigma * forms[f] being signed form q, is the linear form
    sigma * (g * forms[f] - col[f] * normal) at w; an exact zero takes the
    sign of the form's first nonzero coefficient, its sign at
    w + (eps, ..., eps^n).
    """
    for q in ids:
        sigma, f = (1, q) if q >= 0 else (-1, ~q)
        x = sigma * (p[f] * g - s * col[f])
        if not x:
            x = next(filter(None, (g * a - col[f] * v for a, v in zip(forms[f], normal))), 0)
            x *= sigma
            if not x:
                raise InternalInvariant("a membership form vanishes identically")
        if x < 0:
            return False
    return True


def univariate_discriminant_vertices(d: int) -> set:
    """Vertices of the Newton polytope of the discriminant of A = [1 ... 1; 0 1 ... d].

    The principal A-determinant is a_0 * a_d * Delta_A, and its Newton polytope
    is the secondary polytope (Gelfand, Kapranov and Zelevinsky 1994), so the
    vertices are phi_T - e_0 - e_d, one per subset T of {1, ..., d-1}:
    phi_T(i) is the total length of the segments of the subdivision
    0 < T < d that have i as an endpoint.
    """
    out = set()
    for size in range(d):
        for T in combinations(range(1, d), size):
            u = [0] * (d + 1)
            points = (0, *T, d)
            for a, b in zip(points, points[1:]):
                u[a] += b - a
                u[b] += b - a
            u[0] -= 1
            u[d] -= 1
            out.add(tuple(u))
    return out


def hyperdeterminant_222_monomials() -> set:
    """Exponent vectors of Cayley's 2x2x2 hyperdeterminant, in cube_matrix(3)'s column order.

    Column 4i + 2j + k holds a_ijk.  The 12 monomials: a_v^2 a_w^2 for each
    antipodal pair {v, w} (v + w = 7), a_v a_w a_x a_y for each two
    antipodal pairs, and the products over the even and the odd vertices.
    """
    pairs = [(v, 7 - v) for v in range(4)]
    sets = [pair * 2 for pair in pairs]
    sets += [p + r for p, r in combinations(pairs, 2)]
    sets += [tuple(v for v in range(8) if bin(v).count("1") % 2 == parity) for parity in (0, 1)]
    return {tuple(s.count(v) for v in range(8)) for s in sets}


def perturbed_argmin(vertices, w):
    """The vertex minimizing u . (w + (eps, eps^2, ..., eps^n)) for a small eps > 0.

    That is the least (u . w, u_0, u_1, ...) in lexicographic order.
    """
    return min(vertices, key=lambda u: (_dot(u, w), *u))


def dual_defective_vertices(n: int) -> set:
    """The vertex of a constant discriminant's Newton polytope: the origin of R^n."""
    return {(0,) * n}
