"""Cyclic Bergman fan of a loop-free, coloop-free matroid.

Maximal cones are in bijection with regressive compatible pairs (p, <·) over
bases B: a preference function p mapping each non-basis element k to an
element of F_k = C(k, B) - {k} with p(k) < k, together with a total order <·
on the image of p.  Pairs are enumerated by a recursion that fixes p(k) for k
ascending while growing the order, carrying each pair as its chain of order
slots: per image element b, the block {b} + p^-1(b) of the pair's directed
caterpillar tree and the union of the F_k it covers.  The tree's up-sets are
the 0/1 rays of the cone.  The union of these cones over all bases is the
tropical linear space, each cone produced exactly once.  The rays (the
proper flats that are cyclic or singletons) are computed before
enumeration, so _basis_blocks reads each cone off its slots straight into
sorted ray indices in packed blocks: the spine up-sets through the ray
index, the leftover singleton rays by per-byte table lookups.
"""

from __future__ import annotations

import operator
import os
from array import array
from collections import deque, namedtuple
from collections.abc import Sequence
from itertools import groupby, islice, repeat

from .errors import HasColoops, HasLoops, InternalInvariant
from .matroid import Matroid
from .util import elements_of, mask_of, mask_to_vector

BASIS_CHUNK = 256  # bases handed to one worker task under threads > 0


class ConeArray(Sequence):
    """Read-only sequence of maximal cones, packed into one array of ray indices.

    Cone i is the sorted tuple flat[i*width:(i+1)*width].  The count is kept
    apart from the array because the cones of a rank-1 matroid have no rays.
    """

    __slots__ = ("flat", "_width", "_count")

    def __init__(self, data: array, width: int, count: int):
        self.flat = memoryview(data).toreadonly()  # every ray index, cone by cone
        self._width = width
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> tuple:
        i = range(self._count)[operator.index(i)]
        w = self._width
        return tuple(self.flat[i * w : i * w + w])

    def __iter__(self):
        if self._width == 0:
            return repeat((), self._count)
        w = self._width
        return (cone for block in self.blocks(1024) for cone in zip(*[iter(block)] * w))

    def blocks(self, size: int):
        """The packed ray indices, size cones a block."""
        if size < 1:
            raise ValueError(f"block size must be at least 1, not {size}")
        step = size * self._width or 1
        return (self.flat[i : i + step] for i in range(0, len(self.flat), step))

    def __eq__(self, other):
        if not isinstance(other, ConeArray):
            return NotImplemented
        return (self._count, self._width) == (other._count, other._width) and (
            self.flat == other.flat
        )

    def __reduce__(self):  # a memoryview does not pickle; its array does
        return ConeArray, (self.flat.obj, self._width, self._count)

    def __repr__(self) -> str:
        return f"ConeArray(count={self._count}, width={self._width})"


class SpilledCones:
    """Maximal cones packed as in ConeArray.flat, held in a binary file from offset start."""

    def __init__(self, file, start: int, width: int, typecode: str, count: int):
        self.file, self._start, self._width = file, start, width
        self._typecode, self._count = typecode, count

    def __len__(self) -> int:
        return self._count

    __iter__ = ConeArray.__iter__  # over blocks(1024), which seeks the file: one pass at a time

    def blocks(self, size: int):
        """The packed ray indices read back from offset start, size cones a block."""
        if size < 1:
            raise ValueError(f"block size must be at least 1, not {size}")
        itemsize = array(self._typecode).itemsize
        nbytes, step = self._count * self._width * itemsize, size * self._width * itemsize
        self.file.seek(self._start)
        for i in range(0, nbytes, step or 1):  # stop at the last cone, not at end of file
            yield memoryview(self.file.read(min(step, nbytes - i))).cast(self._typecode)


class Fan(namedtuple("Fan", "n rays maximal_cones")):
    """Simplicial fan in R^n: 0/1 rays plus maximal cones (a ConeArray or SpilledCones).

    rays are sorted lexicographically as vectors; each cone is a sorted tuple
    of ray indices, cones listed basis by basis in the order of M.bases and,
    over one basis, in the order _regressive_pairs yields its chains.  The
    lineality space, spanned by the all-ones vector, is implicit.
    """

    __slots__ = ()

    def ray_support(self, i: int) -> tuple:
        return tuple(j + 1 for j, x in enumerate(self.rays[i]) if x)


# -- pair enumeration ---------------------------------------------------------


def _regressive_pairs(fmask):
    """All regressive compatible pairs over one basis, each as its chain of slots.

    fmask[k] is the bitmask of F_k for each non-basis element k.  A chain
    lists one (block, cover) slot per image element b, from the bottom of
    the order to the top: block is {b} + p^-1(b), whose lowest bit is b
    because p is regressive, and cover is the union of F_k over k in
    p^-1(b).  The recursion processes k ascending and touches one slot per
    step.  Reusing an imaged element is only compatible with p(k) = the
    chain-minimal element of image & F_k, whose slot takes k into its block
    and F_k into its cover.  A new element b < k enters as the slot
    ({b, k}, F_k) at any position above every cover holding b (an earlier l
    with b in F_l sits there, and p(l) would not have been minimal) and at
    or below the reused slot (otherwise p(k) itself would not be minimal);
    so candidates in a cover at or above that slot drop at once.  The
    recursion runs one level per k over all partial chains, extending each
    in DFS order (reuse first, then new elements ascending, slots
    bottom-up), so the chains come out in the DFS order of their choices.
    """
    chains, imasks = [()], [0]
    for k, fk in sorted(fmask.items()):
        kbit = 1 << (k - 1)
        below = fk & (kbit - 1)
        next_chains, next_imasks = [], []
        add_chain, add_imask = next_chains.append, next_imasks.append
        for chain, imask in zip(chains, imasks):
            limit = len(chain)
            hits = fk & imask
            if hits:
                for limit, (block, cover) in enumerate(chain):
                    if block & -block & hits:
                        break
                reused = ((block | kbit, cover | fk),)
                add_chain(chain[:limit] + reused + chain[limit + 1 :])
                add_imask(imask)
            cand = below & ~imask
            for _, cover in chain[limit:]:
                cand &= ~cover
            while cand:
                low = cand & -cand
                cand ^= low
                lo = limit
                while lo and not chain[lo - 1][1] & low:
                    lo -= 1
                slot = ((low | kbit, fk),)
                for s in range(lo, limit + 1):
                    add_chain(chain[:s] + slot + chain[s:])
                    add_imask(imask | low)
        chains, imasks = next_chains, next_imasks
    return chains


# -- fan assembly -------------------------------------------------------------


def _require_no_loops_coloops(M: Matroid):
    if M.loops:
        raise HasLoops(M.loops)
    if M.coloops:
        raise HasColoops(M.coloops)


def _ray_index(M: Matroid):
    """The fan's rays, sorted as 0/1 vectors, and the index of each ray's bitmask.

    The rays are the proper flats that are cyclic flats or singletons: every
    proper nonempty cyclic flat, and {i} unless i lies in a rank-1 cyclic
    flat (a parallel class, or E itself when the rank is 1).
    """
    masks = []
    covered = 0
    for Z, r in M.cyclic_flats().items():
        if 0 < r < M.rank:
            masks.append(Z)
        if r == 1:
            covered |= Z
    masks += [1 << i for i in range(M.n) if not covered >> i & 1]
    keyed = sorted((mask_to_vector(mask, M.n), mask) for mask in masks)
    rays = tuple(vector for vector, _ in keyed)
    return rays, {mask: i for i, (_, mask) in enumerate(keyed)}


def _typecode(nrays: int) -> str:
    """The smallest unsigned array typecode that holds every ray index."""
    return next(t for t in "BHILQ" if nrays <= 1 << 8 * array(t).itemsize)


def _basis_blocks(pairs, n: int, width: int, index, typecode):
    """Yield one (block, count) pair per basis: an array of its cones' sorted ray indices.

    pairs holds (B, M.fundamental_circuit_masks(B)) per basis B, over the
    ground set 1..n; width is rank - 1, the rays per cone, and index the ray
    index of _ray_index.  Cones come in canonical pair order.  A basis
    element outside the image hangs off the topmost slot whose cover holds
    it, so a cone's rays are the up-sets of its spine slots but the bottom
    one, plus the singletons outside the image.  Every image element of a
    slot's cover sits in that slot or above (a reused b is chain-minimal in
    image & F_k, a new slot goes in at or below it, and a new image element
    above every cover holding it), so an up-set is the union of
    block | cover over the slots from the top down to it.  The table of byte j maps
    v to the singleton rays among the elements 8j + bits of v.  A ray
    missing from index (ruled out by the paper's theorem), a basis element
    in no block or cover (a coloop) and a cone without rank - 1 rays raise
    InternalInvariant.  With typecode None every cone is checked, none
    stored.
    """
    nonray = ((1 << n) - 1) & ~sum(mask for mask in index if not mask & (mask - 1))
    tables = []
    for j in range(0, n, 8):  # built per call, so per chunk under threads: kept cheap
        table = [[]]
        for v in range(1, 256):  # v's rays: those of v less its top bit, then the top bit's
            top = 1 << v.bit_length() - 1
            ray = index.get(top << j)
            table.append(table[v ^ top] if ray is None else table[v ^ top] + [ray])
        tables.append((j, table))
    for B, masks in pairs:
        out = None if typecode is None else array(typecode)
        bmask = mask_of(B)
        chains = _regressive_pairs(masks)
        for chain in chains:
            row = []
            acc = image = 0
            try:
                for block, cover in reversed(chain):
                    if acc:  # the slot above's up-set; the bottom one's is E
                        row.append(index[acc])
                    acc |= block | cover
                    image |= block
            except KeyError as exc:
                raise InternalInvariant(
                    f"ray {elements_of(exc.args[0])} is not a cyclic flat or singleton"
                ) from None
            if bmask & ~acc:
                raise InternalInvariant(f"{elements_of(bmask & ~acc)} are coloops")
            left = bmask & ~image
            if left & nonray:
                raise InternalInvariant(f"{elements_of(left & nonray)} are not rays")
            for shift, table in tables:
                row += table[left >> shift & 255]
            if len(row) != width:
                raise InternalInvariant("cone does not have rank-1 rays")
            if out is not None:
                row.sort()
                out.fromlist(row)
        yield out, len(chains)


def _drain(blocks, write=None) -> int:
    """Pass the block of each (block, count) pair to write, in order; return the count."""
    count = 0
    for block, k in blocks:
        if write is not None:
            write(block)
        count += k
    return count


def _fan_worker(payload):
    """One --threads task: _drain the blocks of _basis_blocks(*payload) into one block."""
    typecode = payload[-1]
    out = None if typecode is None else array(typecode)
    return out, _drain(_basis_blocks(*payload), None if out is None else out.extend)


def _collect_cones(M: Matroid, threads: int, index, typecode):
    """Yield every cone of the fan as (block, count) pairs in canonical order.

    The one producer of cones, over one walk of the bases and their circuit
    masks.  threads > 0 cuts that walk into chunks of BASIS_CHUNK bases for
    worker processes, at most one per CPU, with at most two chunks per
    worker in flight; each chunk's cones come back as one block, yielded in
    walk order.  The pool is imported here, so a sequential run never
    loads it; a broken pool (a worker died) is raised as OSError.
    """
    pairs = ((B, M.fundamental_circuit_masks(B)) for B in M.enumerate_bases())
    if threads <= 0:
        yield from _basis_blocks(pairs, M.n, M.rank - 1, index, typecode)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = min(threads, os.cpu_count() or 1)
    pending = deque()
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            while chunk := list(islice(pairs, BASIS_CHUNK)):
                payload = (chunk, M.n, M.rank - 1, index, typecode)
                pending.append(pool.submit(_fan_worker, payload))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
    except BrokenProcessPool as exc:
        raise OSError(str(exc)) from exc


def cyclic_bergman_fan(M: Matroid, *, threads: int = 0, spill=None) -> Fan:
    """Assemble the full fan: the rays up front, then all cones over all bases.

    Distinct regressive pairs give distinct cones, so no deduplication of
    cones happens.  threads > 0 distributes per-basis work over processes;
    the output is byte-identical to the sequential run.  With spill, a binary
    file, the cones go there block by block from its current position, and
    into a SpilledCones.
    """
    _require_no_loops_coloops(M)
    rays, index = _ray_index(M)
    data = array(_typecode(len(rays)))
    blocks = _collect_cones(M, threads, index, data.typecode)
    if spill is not None:
        start = spill.tell()  # the cones go after whatever the file holds
        count = _drain(blocks, spill.write)
        return Fan(M.n, rays, SpilledCones(spill, start, M.rank - 1, data.typecode, count))
    return Fan(M.n, rays, ConeArray(data, M.rank - 1, _drain(blocks, data.extend)))


def fan_counts(M: Matroid, *, threads: int = 0) -> tuple:
    """(ray count, maximal cone count) without storing the cones."""
    _require_no_loops_coloops(M)
    rays, index = _ray_index(M)
    return len(rays), _drain(_collect_cones(M, threads, index, None))


def compare_with_bergman(fan: Fan, M: Matroid):
    """Group maximal cones into classes lying in one maximal Bergman cone each.

    The Bergman fan is the normal fan of the matroid polytope (Feichtner and
    Sturmfels 2005), so two cones coincide there iff their interior witnesses
    w = sum of the cone's ray indicators 1_F maximize weight on the same set
    of bases.  A cone's rays are singletons and a chain U_1 < ... < U_s of
    flats, and those bases are the transversals of a partition of E into r
    blocks, r the rank: the singletons, and the steps U_j - U_(j-1) less
    them, with U_0 = 0 and U_(s+1) = E.  For a cone over basis B this holds
    as B is tight on every up-set, w_k = w_p(k) makes k parallel to p(k),
    and a witness inside an r-dimensional cone has r rank-1 components.  A
    class is keyed by its blocks of two or more elements, sorted and packed
    n bits apart in one int.  InternalInvariant is raised unless the chain
    nests, no block is empty, and the blocks' lowest elements form a basis
    T tight on the chain, |T & U| = r(U), so of max weight as x(F) <= r(F)
    cuts out the polytope (Edmonds 1970).  Classes come in order of their
    first cone, each in increasing cone order.
    """
    n, full = M.n, (1 << M.n) - 1
    masks = [mask_of(fan.ray_support(i)) for i in range(len(fan.rays))]
    bases = {mask_of(B) for B in M.enumerate_bases()}
    single = [F.bit_count() == 1 for F in masks]
    rank = M.cyclic_flats()
    class_of = array("I")  # cone index -> class number
    classes: dict = {}  # packed partition -> class number
    for ci, cone in enumerate(fan.maximal_cones):
        lone, chain = [], [full]  # the singleton rays; the others, and E
        for i in cone:
            (lone if single[i] else chain).append(masks[i])
        chain.sort()  # nested sets sort as ints, E last
        T, below, blocks = sum(lone), 0, []
        for U in chain:  # later steps lie outside U, so T & U is final here
            step = U & ~(below | T)  # the earlier lowest elements lie in below
            T |= step & -step
            if below & ~U or not step or (T & U).bit_count() != rank.get(U):
                raise InternalInvariant(f"the rays of cone {ci} do not cut E into tight blocks")
            if step & (step - 1):  # the singleton blocks are the elements left
                blocks.append(step)
            below = U
        if T not in bases:
            raise InternalInvariant(f"the blocks of cone {ci} have no basis as a transversal")
        blocks.sort()
        key = 0
        for block in blocks:
            key = key << n | block
        class_of.append(classes.setdefault(key, len(classes)))
    del classes  # freed before the sort's list
    order = sorted(range(len(class_of)), key=class_of.__getitem__)
    return tuple(tuple(g) for _, g in groupby(order, class_of.__getitem__))
