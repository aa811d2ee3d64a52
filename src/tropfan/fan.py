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

import os
from array import array
from collections import namedtuple
from collections.abc import Sequence
from itertools import groupby, repeat

from .errors import HasColoops, HasLoops, InternalInvariant
from .exact import IntMat
from .matroid import Matroid
from .util import elements_of, mask_of, mask_to_vector


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
        i = range(self._count)[i]
        w = self._width
        return tuple(self.flat[i * w : i * w + w])

    def __iter__(self):
        if self._width == 0:
            return repeat((), self._count)
        return zip(*[iter(self.flat)] * self._width)

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


def _basis_blocks(M: Matroid, bases, index, typecode):
    """Yield one (block, count) pair per basis: an array of its cones' sorted ray indices.

    Cones come in canonical pair order.  A basis element outside the image
    hangs off the topmost slot whose cover holds it, so a cone's rays are
    the up-sets of its spine slots but the bottom one, plus the singletons
    outside the image.  Every image element of a slot's cover sits in that
    slot or above (a reused b is chain-minimal in image & F_k, a new slot
    goes in at or below it, and a new image element above every cover
    holding it), so an up-set is the union of block | cover over the slots
    from the top down to it.  The table of byte j maps v to the singleton
    rays among the elements 8j + bits of v.  A ray missing from index
    (ruled out by the paper's theorem), a basis element in no block or
    cover (a coloop) and a cone without rank - 1 rays raise
    InternalInvariant.  With typecode None every cone is checked, none stored.
    """
    nonray = ((1 << M.n) - 1) & ~sum(mask for mask in index if not mask & (mask - 1))
    bits = [[1 << i for i in range(8) if v >> i & 1] for v in range(256)]
    tables = [
        (j, [[index[b << j] for b in bs if b << j in index] for bs in bits])
        for j in range(0, M.n, 8)
    ]
    width = M.rank - 1
    for B in bases:
        out = None if typecode is None else array(typecode)
        bmask = mask_of(B)
        pairs = _regressive_pairs(M.fundamental_circuit_masks(B))
        for chain in pairs:
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
        yield out, len(pairs)


def _drain(blocks, write=None) -> int:
    """Pass the block of each (block, count) pair to write, in order; return the count."""
    count = 0
    for block, k in blocks:
        if write is not None:
            write(block)
        count += k
    return count


def _fan_worker(payload):
    entries, dual_mode, prefixes, index, typecode = payload
    M = Matroid(IntMat.from_rows(entries), dual_mode=dual_mode, loops=(), coloops=())
    out = None if typecode is None else array(typecode)
    blocks = _basis_blocks(M, M.enumerate_bases(prefixes), index, typecode)
    return out, _drain(blocks, None if out is None else out.extend)


def _collect_cones(M: Matroid, threads: int, index, typecode):
    """Yield every cone of the fan as (block, count) pairs in canonical order.

    The one producer of cones.  threads > 0 hands runs of the basis walk
    (Matroid.basis_shards) to worker processes, at most one per CPU; each
    walks its run and returns one block, yielded in run order, so the parent
    lists no bases.  The pool is imported here, so a sequential run never
    loads it; a broken pool (a worker died) is raised as OSError.
    """
    if threads <= 0:
        yield from _basis_blocks(M, M.enumerate_bases(), index, typecode)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = min(threads, os.cpu_count() or 1)
    shards = M.basis_shards(workers * 4)
    payloads = [(M.A.entries, M.dual_mode, run, index, typecode) for run in shards]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_fan_worker, payloads)
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
    of bases.  The polytope is cut out by x(F) <= r(F) (Edmonds 1970), so
    weight(B) = sum_F |B & F| <= sum_F r(F), with equality iff B is tight on
    every ray: |B & F| = r(F), the largest |B & F| over all bases.  Each ray
    gets the bitset of its tight bases, and a cone's key is the AND of its
    rays' bitsets, which is its set of max-weight bases whenever it is
    nonempty; an empty AND raises InternalInvariant.  Classes are ordered by
    their smallest cone index.  Only the hash of a key is stored, mapped to a
    class number; a cone joins that class only after the class's first
    cone's key, recomputed, equals its own, and a mismatch probes hash + 1.
    Cones keep their class numbers in an array; one stable sort by class
    number groups them at the end, each class in increasing cone order.
    """
    bases = [mask_of(B) for B in M.bases]
    tight = []
    for i in range(len(fan.rays)):
        F = mask_of(fan.ray_support(i))
        sizes = [(b & F).bit_count() for b in bases]
        top = max(sizes)
        bits = "".join("1" if s == top else "0" for s in reversed(sizes))
        tight.append(int(bits, 2))
    full = (1 << len(bases)) - 1

    def key_of(cone):
        key = full
        for i in cone:
            key &= tight[i]
        return key

    cones = fan.maximal_cones
    class_of = array("I")  # cone index -> class number
    first = array("I")  # class number -> its smallest cone index
    by_hash: dict = {}  # hash of a key, probed upward on a mismatch -> class number
    for ci, cone in enumerate(cones):
        key = key_of(cone)
        if not key:
            raise InternalInvariant(f"the rays of cone {ci} share no tight basis")
        h = hash(key)
        while (c := by_hash.get(h)) is not None and key_of(cones[first[c]]) != key:
            h += 1
        if c is None:
            c = by_hash[h] = len(first)
            first.append(ci)
        class_of.append(c)
    del by_hash  # about 40 MB on the 5x20 dual, freed before the sort's list
    order = sorted(range(len(class_of)), key=class_of.__getitem__)
    return tuple(tuple(g) for _, g in groupby(order, class_of.__getitem__))
