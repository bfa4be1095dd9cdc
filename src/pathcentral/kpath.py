"""k-path centrality estimation via restricted random simple paths.

The estimator draws a start vertex from the root's upstream set and a walk
length from 1..k, then grows a self-avoiding random walk that never leaves
the root's domain (no path through the root can touch anything else, so the
restriction discards only irrelevant mass). A walk that reaches its target
length and touched the root contributes the ratio of the walk's actual draw
probability to its weight under the configured weighting, scaled by the
upstream share; everything else contributes zero.

A walk that has not touched the root yet stops as soon as the root is out
of reach: at a vertex u with j steps left and d(u, root) > j it could only
ever score zero, because a self-avoiding walk needs at least d(u, root)
hops to get there. Stopping it draws nothing more, so each sample keeps its
law and only hopeless walks get cheaper.

A step never scans the current vertex's out-list. The list, sorted and
restricted to the domain, is fixed for the run, and the at most k + 1
visited vertices are found in it by bisection: the candidates are the
list minus those, and the drawn index steps past their positions. That
gives the same candidates in the same order as a scan, so a seeded walk
takes the same draws and the same steps.

Both the draw probability and the weight are products of reciprocals of
small integers, so they are carried as integer denominator products and
only combined at the end: the per-sample contribution is an exact integer
ratio and the bound contribution <= upstream share holds by construction.

A run of at least ``_CUTOVER`` (4,096) samples, by its budget or its
fixed length, draws a window of lanes at a time (``_LaneDraws``). Every
draw of a sample has a bound below 2**32 and so reads one 32-bit half-word
of the stream unless Lemire's test rejects it: the source index, the
length, and each step with two or more candidates. The half-words a sample
reads thus depend only on the offset where it starts, and the lane kernel
works out, in numpy and for every offset of a window of 16,384
(``_LANES``) at once, where the next sample would start and whether this
one misses, hits or meets a rejection. The run follows the chain of next
offsets from where the stream stands. Misses score 0 with no Python walk.
A hit is drawn again through ``sample_walk`` on a replay of its own
half-words, which keeps the exact integer ratio; a rejection is drawn on
the stream itself by the scalar draw, and the next window starts after it.
So the stream, every sample and every contribution are those of the scalar
draw. Most lanes are never read (a hub-mix sample reads about three
half-words), which is the price of evaluating them with no dependence
between them. A window makes about k * 20 numpy calls whatever its width,
so a wide window spreads them over more lanes. A shorter run keeps the
scalar draw, since one window would cost more than the whole run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import InitVar, dataclass

import numpy as np

from .adaptive import (
    Estimate,
    _floor,
    _lemire,
    check_accuracy,
    check_count,
    run_sampling_loop,
    stopping_terms,
)
from .graph import DirectedGraph
from .reachability import ReachabilityInfo, compute_reachability

__all__ = [
    "KPathConfig",
    "WalkSample",
    "compute_walk_budget",
    "sample_walk",
    "estimate_kpath_centrality",
]


@dataclass(frozen=True)
class KPathConfig:
    """Options for the k-path estimator.

    ``weight="original"`` counts all unvisited out-neighbors in the walk
    weight's denominators, ``"restricted"`` only those inside the root's
    domain (making the weight equal to the draw probability, so every
    complete hit contributes exactly the upstream share).

    ``fixed_samples`` picks the run length, as in ``EstimatorConfig``: None
    stops once both gap terms drop below the tolerance or the fallback
    budget is spent, a count runs exactly that many draws. ``stopping``
    names the same choice (``"adaptive"`` or ``"fixed"``); it is optional,
    not stored, and refused when it disagrees with ``fixed_samples``.

    Every root with an in-edge is sampled, sinks included: a counted path
    may end at the root, so a root with no out-edge can score above zero.
    """

    k: int
    tolerance: float = 0.05
    failure_prob: float = 0.1
    seed: int | None = None
    weight: str = "original"
    stopping: InitVar[str | None] = None
    fixed_samples: int | None = None

    def __post_init__(self, stopping: str | None):
        check_count("k", self.k)
        check_accuracy(self.tolerance, self.failure_prob, self.fixed_samples)
        if self.weight not in ("original", "restricted"):
            raise ValueError(f"weight must be 'original' or 'restricted', got {self.weight!r}")
        if stopping not in (None, "adaptive", "fixed"):
            raise ValueError(f"stopping must be 'adaptive' or 'fixed', got {stopping!r}")
        if stopping is not None and (stopping == "fixed") != (self.fixed_samples is not None):
            raise ValueError(f"stopping={stopping!r} disagrees with "
                             f"fixed_samples={self.fixed_samples!r}")


@dataclass(frozen=True)
class WalkSample:
    """One drawn walk with its draw probability and weight as integers.

    ``probability_denominator`` is the product of candidate-set sizes along
    the walk, ``weight_denominator`` the product of the configured weight
    denominators; the draw probability and the weight are their
    reciprocals. The former never exceeds the latter because the candidate
    sets are subsets of the weight sets. ``completed`` is False when the
    walk stopped before the target length: either the candidate set
    emptied, or the walk had not touched the root and the root was farther
    than the steps left (such a walk could never score).
    """

    vertices: tuple[int, ...]
    target_length: int
    completed: bool
    contains_mark: bool
    probability_denominator: int
    weight_denominator: int


class _WalkSpace:
    """Reusable scratch: the out-lists restricted to the root's domain, and
    distances to the root.

    ``adj[u]`` is u's sorted out-list with the vertices outside the domain
    left out, for every u a walk can stand on. When the domain is every
    vertex it is ``g._fwd`` itself. Otherwise only the lists of upstream
    vertices that are not downstream are filtered, once per run: the root
    also reaches the out-neighbours of every vertex it reaches, so the
    other lists of domain vertices stay inside the domain.

    ``to_root`` is ``reach.to_root`` itself: the hop count from v to the
    root, or one more than the vertex count when v is not upstream (no walk
    from v can reach the root).

    ``lane_csr()`` gives the same restricted lists as CSR arrays for the
    lane kernel (``_LaneDraws``): the graph's cached forward CSR when the
    domain is every vertex, else a copy with the same rows filtered.
    """

    __slots__ = ("adj", "to_root", "_g", "_filtered", "_inside")

    def __init__(self, g: DirectedGraph, reach: ReachabilityInfo):
        n = g.vertex_count
        upstream = reach.to_root_array <= n
        downstream = reach.from_root_array <= n
        inside = upstream | downstream
        self._g = g
        if inside.all():
            self.adj = g._fwd
            self._filtered = self._inside = None
        else:
            adj = list(g._fwd)
            in_domain = inside.tolist()
            self._filtered = upstream & ~downstream
            self._inside = inside
            for u in np.flatnonzero(self._filtered).tolist():
                adj[u] = tuple(v for v in adj[u] if in_domain[v])
            self.adj = adj
        self.to_root = reach.to_root

    def lane_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the restricted out-lists, rows sorted."""
        forward = self._g._search_matrices()[0]
        indptr, indices = forward.indptr, forward.indices
        if self._filtered is None:
            return indptr, indices
        rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int32), np.diff(indptr))
        keep = self._inside[indices] | ~self._filtered[rows]
        counts = np.bincount(rows[keep], minlength=len(indptr) - 1)
        return np.concatenate(([0], np.cumsum(counts))).astype(indptr.dtype), indices[keep]


def compute_walk_budget(
    tolerance: float,
    failure_prob: float,
    source_fraction: float,
) -> int:
    """Sample count sufficient for the target accuracy at the given range.

    Plain two-sided concentration over samples bounded by the source
    fraction, missing the tolerance with probability at most
    ``failure_prob``. The estimator passes half its failure probability;
    the gap terms get the other half.
    """
    base = math.log(2.0 / failure_prob) / (2.0 * tolerance**2)
    budget = math.ceil(source_fraction**2 * base)
    return max(budget, 1)


def sample_walk(
    g: DirectedGraph,
    reach: ReachabilityInfo,
    source: int,
    target_length: int,
    rng,
    weight: str = "original",
    space: _WalkSpace | None = None,
) -> WalkSample:
    """Grow one self-avoiding random walk of up to ``target_length`` steps.

    Starts at ``source`` (which must be upstream of the reachability root)
    and repeatedly steps to a uniformly drawn unvisited out-neighbor inside
    the root's domain. Stops short, with ``completed=False``, when no such
    neighbor exists, or when the walk has not touched the root and the
    root is more hops away than steps remain; the latter check runs before
    each step draws, so a walk from a source too far from the root takes
    no random words at all.
    """
    if target_length < 1:
        raise ValueError("target_length must be >= 1")
    root = reach.root
    n = g.vertex_count
    if not (0 <= source < n and source != root and reach.to_root[source] <= n):
        raise ValueError("walk sources must lie in the root's upstream set")
    if space is None:
        space = _WalkSpace(g, reach)
    adj = space.adj
    fwd = g._fwd
    to_root = space.to_root

    path = [source]
    current = source
    prob_den = 1
    weight_den = 1
    contains = False
    completed = True
    restricted = weight == "restricted"

    for steps_left in range(target_length, 0, -1):
        if not contains and to_root[current] > steps_left:
            completed = False
            break
        neighbors = adj[current]
        # positions of the visited vertices in the sorted out-list
        taken = []
        for v in path:
            i = bisect_left(neighbors, v)
            if i < len(neighbors) and neighbors[i] == v:
                taken.append(i)
        count = len(neighbors) - len(taken)
        if not count:
            completed = False
            break
        prob_den *= count
        # visited vertices all lie in the domain, so the full out-list
        # holds the same ones
        weight_den *= count if restricted else len(fwd[current]) - len(taken)
        pick = int(rng.integers(count)) if count > 1 else 0
        # the pick-th unvisited entry: step past the visited positions
        for i in sorted(taken):
            if i > pick:
                break
            pick += 1
        current = neighbors[pick]
        path.append(current)
        if current == root:
            contains = True

    return WalkSample(
        vertices=tuple(path),
        target_length=target_length,
        completed=completed,
        contains_mark=contains,
        probability_denominator=prob_den,
        weight_denominator=weight_den,
    )


# Offsets one lane window evaluates at once. A window makes about k * 20
# numpy calls whatever its width, so a wide one spreads them over more lanes.
_LANES = 16384

# A run shorter than this, by its budget or by its fixed length, draws sample
# by sample instead, since one window would cost more than the whole run.
_CUTOVER = 4096

# Outcome of the sample that starts at a lane's offset.
_MISS, _HIT, _SCALAR = 0, 1, 2

# The lane kernel's walk arrays have a multiple of this many entries.
_PAD = 128

def _running_first(live: np.ndarray) -> np.ndarray:
    """Indices of the True entries of ``live``, in order, followed by as many
    False ones as make the count a multiple of ``_PAD`` (or all of them)."""
    keep = -(-int(np.count_nonzero(live)) // _PAD) * _PAD
    return np.argsort(~live, kind="stable")[:keep]


class _Replay:
    """Bounded draws read from one lane's half-words, starting at offset ``at``.

    ``integers`` gives what ``RawDraws.integers`` gives for a bound below
    2**32 when Lemire's step rejects nothing, which the lane kernel has
    checked for every draw of a hit: a bound of 1 reads nothing, any other
    reads one half-word. ``at`` is left at the next unread offset.
    """

    __slots__ = ("_halves", "at")

    def __init__(self, halves: np.ndarray, at: int):
        self._halves = halves
        self.at = at

    def integers(self, low: int, high: int | None = None) -> int:
        if high is None:
            low, high = 0, low
        m = high - low
        if m == 1:
            return low
        x = int(self._halves[self.at]) * m
        self.at += 1
        return low + (x >> 32)


class _LaneDraws:
    """``draws(count)`` for a k-path run, a window of lanes at a time.

    Every bounded draw of a sample (source index, length, each step with two
    or more candidates) has a bound below 2**32, so it reads one half-word
    of the stream unless Lemire's test rejects it. Which half-words a
    sample reads therefore depends only on the offset where it starts.
    :meth:`outcomes` evaluates, in numpy, the sample that would start at
    each offset of a window of peeked half-words: where the next sample
    would start, and whether this one misses, hits, or meets a rejection.

    A call follows the chain of next offsets from where the stream stands.
    A miss contributes 0.0. A hit is drawn again by ``draw``, the scalar
    sample, on a replay of that lane's half-words, so ``sample_walk``
    computes its exact integer ratio as it always has. A rejection
    commits the stream to that offset and draws the sample with ``draw``
    on the stream itself; the next window starts where that leaves the
    stream. At the end of each call the stream is committed to where the
    scalar draws would leave it, and the window is kept for the next
    call.
    """

    def __init__(self, space: _WalkSpace, reach: ReachabilityInfo, k: int, rng, draw):
        self._indptr, self._indices = space.lane_csr()
        # the Lemire floor of every candidate count a step can have
        widest = int(np.diff(self._indptr).max(initial=0))
        self._floors = np.array([0] + [_floor(c) for c in range(1, widest + 1)],
                                dtype=np.uint64)
        self._to_root = reach.to_root_array
        self._sources = reach.source_array
        self._root = reach.root
        self._k = k
        # half-words the source index and the length take
        self._width = (len(self._sources) > 1) + (k > 1)
        self._rng = rng
        self._draw = draw
        self._halves = None
        self._next = self._kind = None
        self._at = 0    # window offset of the next sample
        self._read = 0  # window offset the stream is committed to

    def outcomes(self, halves: np.ndarray, lanes: int) -> tuple[np.ndarray, np.ndarray]:
        """For each offset p < ``lanes`` of ``halves``, the sample that starts there.

        Returns ``(next, kind)``: ``next[p]`` is the offset after that
        sample, and ``kind[p]`` is ``_MISS``, ``_HIT`` or ``_SCALAR``.
        ``_SCALAR`` marks a sample that meets a Lemire rejection, or that
        would read past the end of ``halves``; its ``next`` is not set.
        ``halves`` must hold at least ``lanes`` plus the prefix width
        entries. A walk follows ``sample_walk`` step by step: the cut when
        the root is out of reach, the dead end, no draw for a single
        candidate, and the pick stepped past the visited positions.

        The walks still running are kept first in the state arrays, whose
        length is cut to a multiple of ``_PAD`` as they end; the entries
        past them are ended lanes, masked by ``live``. numpy keeps freed
        buffers below 1,024 bytes for reuse, a few per size, so arrays cut
        to the exact number of running walks would leave a buffer of every
        size behind; these come in at most seven sizes below 1,024 bytes.
        """
        n_src, k, width = len(self._sources), self._k, self._width
        indptr, indices, to_root = self._indptr, self._indices, self._to_root
        kind = np.full(lanes, _MISS, dtype=np.int8)
        nxt = np.arange(width, lanes + width)
        if n_src > 1:
            index, rejected = _lemire(halves[:lanes], np.uint64(n_src), _floor(n_src))
            start = self._sources[index]
        else:
            rejected = np.zeros(lanes, dtype=bool)
            start = np.full(lanes, self._sources[0])
        if k > 1:
            length, no = _lemire(halves[width - 1:width - 1 + lanes], np.uint64(k), _floor(k))
            length = length.astype(np.int64) + 1
            rejected |= no
        else:
            length = np.ones(lanes, dtype=np.int64)
        np.copyto(kind, _SCALAR, where=rejected)

        # the walks' state, one entry per lane
        live = ~rejected & (to_root[start] <= length)
        lane = _running_first(live)
        live = live[lane]
        cur = start[lane]
        left = length[lane]
        at = lane + width
        contains = np.zeros(len(lane), dtype=bool)
        path: list[np.ndarray] = []  # the vertices before ``cur``
        end = len(halves)
        last = len(indices) - 1
        while live.any():
            lo = indptr[cur].astype(np.int64)
            deg = indptr[cur + 1] - lo
            if path:
                widest = int(np.max(deg, where=live, initial=0))
                taken = self._positions(np.tile(lo, len(path)), np.tile(deg, len(path)),
                                        np.concatenate(path), widest).reshape(len(path), -1)
                count = deg - (taken < deg).sum(axis=0)
            else:
                count = deg
            stuck = count == 0
            draws = count > 1
            pick, no = _lemire(halves[np.minimum(at, end - 1)], count.astype(np.uint64),
                               self._floors[count])
            no = draws & (no | (at >= end))
            pick = np.where(draws, pick.astype(np.int64), 0)
            at += draws
            if path:
                # the pick-th candidate sits at the least position q with
                # q = pick + (visited positions <= q); each round that has
                # not reached it moves past one more visited position
                base = pick
                for _ in path:
                    pick = base + (taken <= pick).sum(axis=0)
            step = indices[np.minimum(lo + pick, last)]
            contains |= step == self._root
            left -= 1
            # a walk ends when it is done, stuck, rejected, or cut before its
            # next step because the root is out of reach
            over = live & (stuck | no | (left == 0) | (~contains & (to_root[step] > left)))
            hit = over & (left == 0) & contains & ~stuck & ~no
            np.put(kind, lane, np.where(over & no, _SCALAR, np.where(hit, _HIT, kind[lane])))
            np.put(nxt, lane, np.where(over, at, nxt[lane]))
            live &= ~over
            path.append(cur)
            cur = step
            order = _running_first(live)
            if len(order) < len(lane):
                lane, live, cur, left, at, contains = (
                    lane[order], live[order], cur[order], left[order], at[order], contains[order])
                path = [p[order] for p in path]
        return nxt, kind

    def _positions(self, lo: np.ndarray, deg: np.ndarray, v: np.ndarray, widest: int
                   ) -> np.ndarray:
        """Position of each ``v`` in its sorted row ``indices[lo:lo + deg]``,
        or ``deg`` when it is not there; no row is longer than ``widest``.

        A segmented binary search by halving steps: ``last`` is the last
        entry known to be below ``v``, and it moves on by each power of two
        that keeps it inside the row and below ``v``.
        """
        indices = self._indices
        last = lo - 1
        row_end = last + deg
        for shift in range(widest.bit_length() - 1, -1, -1):
            probe = last + (1 << shift)
            move = probe <= row_end
            move &= indices.take(probe, mode="clip") < v
            last += move * (1 << shift)
        last += 1
        found = last <= row_end
        found &= indices.take(last, mode="clip") == v
        return np.where(found, last - lo, deg)

    def _open(self) -> None:
        """Evaluate a new window at the stream's position."""
        margin = self._width + min(self._k, _LANES)
        self._halves = self._rng.peek(_LANES + margin)
        nxt, kind = self.outcomes(self._halves, _LANES)
        self._next = memoryview(nxt)
        self._kind = memoryview(kind)
        self._at = self._read = 0

    def __call__(self, count: int) -> list[float]:
        out = [0.0] * count
        rng = self._rng
        at = self._at
        i = 0
        while i < count:
            if self._halves is None or at >= _LANES:
                rng.skip(at - self._read)
                self._open()
                at = 0
            kinds, links = self._kind, self._next
            while i < count and at < _LANES:
                kind = kinds[at]
                if kind == _MISS:
                    at = links[at]
                elif kind == _HIT:
                    replay = _Replay(self._halves, at)
                    out[i] = self._draw(replay)
                    at = links[at]
                    assert replay.at == at
                else:
                    rng.skip(at - self._read)
                    out[i] = self._draw(rng)
                    # the next window starts where the scalar draw left the stream
                    self._halves = None
                    at = self._read = 0
                    i += 1
                    break
                i += 1
        rng.skip(at - self._read)
        self._at = self._read = at
        return out


def estimate_kpath_centrality(g: DirectedGraph, root: int, cfg: KPathConfig) -> Estimate:
    """Estimate the root's k-path centrality.

    Scores, per sample, the upstream share scaled by the ratio of draw
    probability to walk weight, for complete walks that touched the root;
    stuck walks and misses contribute zero but still count, which is what
    keeps the estimator unbiased over the walk space. A draw whose source
    is farther from the root than its length scores zero without growing
    a walk, consuming the same random words ``sample_walk`` would.

    A run whose length (its budget, or its fixed sample count) is at least
    ``_CUTOVER`` draws through ``_LaneDraws``; a shorter one draws sample
    by sample. Both give the same samples from the same stream.

    A root with no in-edge reports a degenerate zero. The budget is
    ``compute_walk_budget`` at half the failure probability; a fixed run
    ignores it.
    """

    def plan(rng):
        if g.in_degree(root) == 0:
            return None

        reach = compute_reachability(g, root)
        sources = reach.sources
        bound = float(reach.source_fraction)
        budget = compute_walk_budget(cfg.tolerance, cfg.failure_prob / 2.0, bound)

        n = g.vertex_count
        n_src = len(sources)
        space = _WalkSpace(g, reach)
        to_root = space.to_root
        k = cfg.k
        weighting = cfg.weight

        def draw(stream) -> float:
            s = sources[int(stream.integers(n_src))]
            length = int(stream.integers(1, k + 1))
            if to_root[s] > length:
                return 0.0
            walk = sample_walk(g, reach, s, length, stream, weight=weighting, space=space)
            assert walk.probability_denominator <= walk.weight_denominator
            if walk.completed and walk.contains_mark:
                return n_src * walk.probability_denominator / (n * walk.weight_denominator)
            return 0.0

        run_length = budget if cfg.fixed_samples is None else cfg.fixed_samples
        if run_length < _CUTOVER or k >= 0x100000000:
            return (lambda count: [draw(rng) for _ in range(count)]), budget, bound
        return _LaneDraws(space, reach, k, rng, draw), budget, bound

    return run_sampling_loop(cfg, stopping_terms, plan)
