"""The linear matroid of an integer matrix.

A handle is built either directly from a matrix A (column dependences over Q)
or in dual mode, where it answers queries about the dual matroid of M(A)
without ever materializing a Gale dual: bases are complements, and dual
fundamental circuits come from the incidence flip
j in C*(k, B)  iff  k in C(j, complement of B).  Bases come from one walk
over the column subsets of A, one pivot step per subset, that hands each
basis's reduced rows to fundamental_circuit_masks.
Ground-set indices are 1-based throughout.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress

from .errors import HasColoops, HasLoops, NotABasis, RankDeficient, WrongSize
from .exact import IntMat, gauss_jordan, pivot_step
from .util import elements_of, primitive


class Matroid:
    """Linear matroid M(A), or its dual when dual_mode is set.

    Handles are immutable after construction except for the cached bases
    and the walk's last rows, stored with their basis as one tuple, read
    once per lookup.
    """

    def __init__(self, A: IntMat, *, dual_mode: bool, loops, coloops):
        self.A = A
        self.n = A.cols
        self.m = A.rows  # rank of the representation matrix
        self.dual_mode = dual_mode
        self.loops = tuple(loops)
        self.coloops = tuple(coloops)
        self._last = None  # (basis, reduced rows) of the walk's last yield

    # -- construction -------------------------------------------------------

    @classmethod
    def from_matrix(cls, A, *, strict: bool = True) -> "Matroid":
        """Build M(A).  A rank-deficient A gives way to its nonzero reduced rows.

        With strict=True (the default) the constructor refuses matroids with
        loops or coloops, which the fan computation cannot handle anyway;
        strict=False records them on the handle instead, which is enough for
        reports such as bases, circuits, or the Tutte polynomial.
        """
        if not isinstance(A, IntMat):
            A = IntMat.from_rows(A)
        # row operations keep the column matroid; a pivot column is a coloop
        # iff no free column has a nonzero entry in its row
        rows = A.row_lists()
        pivots, _ = gauss_jordan(rows)
        if not pivots:
            raise RankDeficient("matrix has rank 0")
        if len(pivots) < A.rows:
            A = IntMat.from_rows(rows[: len(pivots)])
        loops = tuple(j + 1 for j, col in enumerate(A.columns) if not any(col))
        free = [c for c in range(A.cols) if c not in pivots]
        coloops = [
            c + 1 for r, c in enumerate(pivots) if not any(rows[r][f] for f in free)
        ]
        if strict:
            if loops:
                raise HasLoops(loops)
            if coloops:
                raise HasColoops(coloops)
        return cls(A, dual_mode=False, loops=loops, coloops=tuple(coloops))

    def dual(self) -> "Matroid":
        """Handle for the dual matroid, backed by the same matrix."""
        return Matroid(
            self.A,
            dual_mode=not self.dual_mode,
            loops=self.coloops,
            coloops=self.loops,
        )

    # -- basic queries ------------------------------------------------------

    @property
    def rank(self) -> int:
        """Rank of the represented matroid (n - m in dual mode)."""
        return self.n - self.m if self.dual_mode else self.m

    def _subset(self, S) -> tuple:
        """S as a sorted tuple of distinct elements, each checked to lie in 1..n."""
        S = tuple(sorted(set(S)))
        if S and (S[0] < 1 or S[-1] > self.n):
            raise WrongSize(f"{list(S)} is not a subset of 1..{self.n}")
        return S

    def enumerate_bases(self):
        """Yield every basis exactly once, in lexicographic order of subsets.

        A depth-first walk over the increasing column subsets of A: a node
        applies one pivot_step to a copy of its parent's rows, a column zero
        in the unused rows is skipped, and a leaf leaves its rows, A's reduced
        on the columns chosen, on the handle with its basis for
        fundamental_circuit_masks.  Dual bases in lexicographic order are the
        complements of M(A)'s in reverse order, so dual children descend.
        """
        n, m, dual = self.n, self.m, self.dual_mode

        def below(rows, chosen, prev):
            k = len(chosen)
            if k == m:
                elems = [e for e in range(n) if e not in chosen] if dual else chosen
                B = tuple([e + 1 for e in elems])
                self._last = (B, rows)
                yield B
                return
            cols = range(chosen[-1] + 1 if chosen else 0, n - m + k + 1)
            for c in reversed(cols) if dual else cols:
                child = [row[:] for row in rows]
                if pivot_step(child, k, c, prev):
                    yield from below(child, chosen + (c,), child[k][c])

        yield from below(self.A.row_lists(), (), 1)

    @cached_property
    def bases(self) -> tuple:
        return tuple(self.enumerate_bases())

    # -- fundamental circuits -----------------------------------------------

    def fundamental_circuit_masks(self, B) -> dict:
        """Bitmasks of F_k = C(k, B) - {k} for every non-basis element k.

        One row reduction serves all k: the walk's, if B is the basis it
        yielded last, else a fresh one, a pivot_step per column of B.  In
        dual mode it pivots on the complement basis of A and the incidence
        is transposed.
        """
        B = self._subset(B)
        if len(B) != self.rank:
            raise NotABasis(f"{list(B)} is not a basis")
        bset = set(B)
        outside = [k for k in range(1, self.n + 1) if k not in bset]
        pivot_elems = outside if self.dual_mode else B  # a basis of M(A)
        if (last := self._last) is not None and last[0] == B:
            m = last[1]
        else:
            m, prev = self.A.row_lists(), 1
            for r, p in enumerate(pivot_elems):
                if not pivot_step(m, r, p - 1, prev):
                    raise NotABasis(f"{list(B)} is not a basis")
                prev = m[r][p - 1]
        # bit x of nz[r] marks element x + 1 if pivot row r is nonzero there:
        # the row's own pivot and each other element whose circuit holds it
        bits = [1 << x for x in range(self.n)]
        nz = [sum(compress(bits, row)) for row in m[: self.m]]
        if self.dual_mode:
            return {p: mask & ~(1 << (p - 1)) for p, mask in zip(outside, nz)}
        return {
            k: sum(1 << (p - 1) for p, mask in zip(B, nz) if mask >> (k - 1) & 1)
            for k in outside
        }

    # -- global structure ----------------------------------------------------

    def circuits(self):
        """All circuits, each a sorted tuple, the list in lexicographic order.

        Every circuit is fundamental over some basis, and every fundamental
        circuit is a circuit, so the fundamental circuits over all bases are
        exactly the circuits.
        """
        seen = set()
        for B in self.enumerate_bases():
            for k, mask in self.fundamental_circuit_masks(B).items():
                seen.add(mask | (1 << (k - 1)))
        return tuple(sorted(elements_of(mask) for mask in seen))

    def cyclic_flats(self) -> dict:
        """Every cyclic flat (a flat that is a union of circuits), as bitmask -> rank.

        The flats of M(A) are walked upward from cl(empty set) to E, each
        reached once, from its lexicographically first basis S: S + {e} with
        e > max S is followed only if its closure gains no element below e.
        Each flat's rows are its parent's plus one pivot_step on column e,
        which is nonzero below the pivots since e lies outside the parent
        flat, and the walk reads what it needs off the rows.  Below the
        pivots, a column is zero iff it lies in cl(S), and cl(S + {e}) adds
        the columns parallel to e's there; so grouping the columns outside
        the flat by their primitive direction gives every child's closure,
        and e must be the smallest element of its group.  Pivot row r holds
        the coordinate on the r-th element of S of each column in the flat,
        so that element is a coloop of the restriction iff the row is zero
        on the flat's other elements; the flat is cyclic iff no pivot row is.
        The cyclic flats of the dual are the complements E - Z, of rank
        |E - Z| + r(Z) - m.
        """
        n = self.n
        found = {}

        def visit(flat, basis, rows, prev):
            k = len(basis)
            rest = [x for x in range(n) if flat >> x & 1 and x not in basis]
            if all(any(row[x] for x in rest) for row in rows[:k]):
                found[flat] = k
            # the columns outside the flat, grouped by direction below the pivots
            groups = {}
            for x, col in enumerate(zip(*rows[k:])):
                if not flat >> x & 1:
                    key = primitive(col)
                    groups[key] = groups.get(key, 0) | 1 << x
            last = basis[-1] if basis else -1
            for group in groups.values():
                e = (group & -group).bit_length() - 1
                if e > last:  # otherwise S + {e} is not the first basis of its closure
                    child = [row[:] for row in rows]
                    pivot_step(child, k, e, prev)
                    visit(flat | group, basis + [e], child, child[k][e])

        loops = sum(1 << x for x, col in enumerate(self.A.columns) if not any(col))
        visit(loops, [], self.A.row_lists(), 1)
        if self.dual_mode:
            full = (1 << n) - 1
            return {full & ~Z: n - Z.bit_count() + r - self.m for Z, r in found.items()}
        return found

    def tutte_polynomial(self) -> dict:
        """Tutte polynomial via internal/external activities over all bases.

        Activities are taken in the natural order of the ground set: a
        non-basis k is externally active iff it is the smallest element of
        C(k, B), a basis element b internally active iff it is the smallest
        element of its fundamental cocircuit {b} + {k : b in C(k, B)}.
        Returns the coefficient of x^i y^j under each key (i, j).
        """
        coeffs = {}
        for B in self.enumerate_bases():
            fk = self.fundamental_circuit_masks(B)
            ext = sum(1 for k, mask in fk.items() if not mask & ((1 << k) - 1))
            internal = sum(all(b < k for k, mask in fk.items() if mask >> (b - 1) & 1) for b in B)
            coeffs[internal, ext] = coeffs.get((internal, ext), 0) + 1
        return coeffs
