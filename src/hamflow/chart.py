"""Coordinate charts, smooth maps between them, and domain sampling.

A chart is a named open box-with-inequalities in R^d (d <= 6), with periodic
flags for angular coordinates.  The domain is the set where every inequality
function is <= 0; an optional scalar ``boundary`` function cuts the model
boundary as its zero level (negative inside).  The box is the sampling bound
and holds the domain, so ``Chart.contains`` is the one membership test.
Every tuple of inequalities (a domain, a field margin, the ray march's side
faces) is read by :func:`holds`, where a NaN never holds.
Every point-cloud question (neighbour pairs, nearest neighbours, orbit
proximity) reads its distances
from ``Chart.squared_distance_blocks``.  Given a radius, it compares a block
of nearby rows only with the rows inside the block's bounding box widened
by that radius on every non-periodic coordinate (a fixed-radius
near-neighbour sweep, Bentley, Stanat & Williams 1977), with a margin that
never drops a closer pair; every distance it returns is bitwise the full
distance matrix's.  Connected
components, of point clusters and of grid row runs alike, come from the one
union-find ``_components``.

Sampling is rejection sampling against the domain inequalities with a fixed
candidate stream, so the first n accepted points never depend on how many
points were requested (prefix stability).  Boundary points come from rays cast
from interior samples; a request's crossings are bisected onto the zero level
of ``boundary`` in one call that stops once no bracket moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import jets
from .errors import BoundaryNotFound, EmptyDomainSuspected
from .jets import Jet

Array = np.ndarray
ScalarField = Callable[[Sequence[Jet]], Jet]

TWO_PI = 2.0 * np.pi
PAIR_BUDGET = 128 * 2000  # most row pairs in one squared_distance_blocks block
SWEEP_ROWS = 64  # most rows of a in one radius-pruned squared_distance_blocks block


@dataclass(frozen=True)
class Chart:
    """A coordinate box holding the domain its inequalities cut out, and an optional boundary."""

    name: str
    coords: tuple[str, ...]
    periodic: tuple[bool, ...]
    box_lo: tuple[float, ...]
    box_hi: tuple[float, ...]
    domain: tuple[ScalarField, ...] = ()
    boundary: ScalarField | None = None

    def __post_init__(self):
        d = len(self.coords)
        if not (1 <= d <= 6):
            raise ValueError(f"chart dimension {d} outside supported range 1..6")
        if len(self.periodic) != d or len(self.box_lo) != d or len(self.box_hi) != d:
            raise ValueError("coords/periodic/box lengths disagree")
        for per, lo, hi in zip(self.periodic, self.box_lo, self.box_hi):
            if per and (lo, hi) != (0.0, TWO_PI):
                raise ValueError(f"periodic coordinate box [{lo}, {hi}] is not [0, 2*pi]")

    @property
    def dim(self) -> int:
        return len(self.coords)

    # ------------------------------------------------------------------

    def wrap(self, points: Array) -> Array:
        """Reduce periodic coordinates, the last axis of ``points``, to [0, 2*pi)."""
        pts = np.array(points, dtype=float, copy=True)
        for j, per in enumerate(self.periodic):
            if per:
                pts[..., j] = np.mod(pts[..., j], TWO_PI)
        return pts

    def displacement(self, a: Array, b: Array) -> Array:
        """Componentwise b - a, shortest way around on periodic coordinates."""
        d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
        for j, per in enumerate(self.periodic):
            if per:
                d[..., j] = (d[..., j] + np.pi) % TWO_PI - np.pi
        return d

    def squared_distance_blocks(
        self, a: Array, b: Array, radius: float | None = None
    ) -> Iterator[tuple[Array, Array, Array]]:
        """Yield ``(ia, ib, s)``, ``s[k, l]`` the squared distance from ``a[ia[k]]``
        to ``b[ib[l]]``, in blocks of at most PAIR_BUDGET pairs (or one row of
        ``a``); no row of ``a`` is in two blocks.

        With a ``radius`` (at least 0), each non-periodic coordinate has a
        reach: ``radius * (1 + 1e-9)`` plus 2**-50 of the largest magnitude on
        it in either cloud.  ``b`` is sorted along the non-periodic coordinate
        where it spreads widest, the sweep.  The rows of ``a`` are put in cells
        along the sweep, each as wide as the larger of its reach and the width
        that holds SWEEP_ROWS rows of ``a`` on average, and each cell is sorted
        along the next-widest non-periodic coordinate.  A block is at most
        SWEEP_ROWS rows of one cell, and it meets only the rows of ``b`` inside
        its bounding box widened by the reach on every non-periodic
        coordinate (Bentley, Stanat & Williams 1977); blocks that meet none are
        skipped.  The margin outweighs the rounding of ``b - a``, so a pair
        left out has a rounded squared distance of at least the rounded
        ``radius**2``.  Every row of ``b`` is met when no radius is given, when
        every coordinate is periodic, or when either cloud has a non-finite
        entry.

        ``s`` is :meth:`squared_distances` of the block's rows, so each value
        is bitwise the full distance matrix's.
        """
        free = [j for j, per in enumerate(self.periodic) if not per]
        n, m = a.shape[0], b.shape[0]
        if not (n and m):
            return
        if radius is None or not free or not (np.isfinite(a).all() and np.isfinite(b).all()):
            rows = max(1, PAIR_BUDGET // m)
            at, bt = a.T.copy()[:, :, None], b.T.copy()[:, None, :]
            for i0 in range(0, n, rows):
                yield np.arange(i0, min(i0 + rows, n)), np.arange(m), self.squared_distances(at[:, i0 : i0 + rows], bt)
            return
        k, *rest = sorted(free, key=lambda j: -np.ptp(b[:, j]))
        scale = np.maximum(np.abs(a[:, free]).max(axis=0), np.abs(b[:, free]).max(axis=0))
        reach = dict(zip(free, radius * (1.0 + 1e-9) + 2.0**-50 * scale))
        ob = np.argsort(b[:, k], kind="stable")
        bt = b[ob].T.copy()
        width = max(reach[k], np.ptp(a[:, k]) * SWEEP_ROWS / n) or 1.0
        cell = np.floor((a[:, k] - a[:, k].min()) / width)
        oa = np.lexsort((a[:, rest[0] if rest else k], cell))
        at = a[oa].T.copy()
        # a block starts at each cell's first row and every SWEEP_ROWS rows after it
        first = np.r_[True, cell[oa][1:] != cell[oa][:-1]]
        depth = np.arange(n) - np.maximum.accumulate(np.where(first, np.arange(n), 0))
        starts = np.flatnonzero(depth % SWEEP_ROWS == 0)
        ends = np.r_[starts[1:], n]
        box = {
            j: (np.minimum.reduceat(at[j], starts) - reach[j], np.maximum.reduceat(at[j], starts) + reach[j])
            for j in free
        }
        j0s = np.searchsorted(bt[k], box[k][0], "left")
        j1s = np.searchsorted(bt[k], box[k][1], "right")
        for blk, (i0, i1, j0, j1) in enumerate(zip(starts, ends, j0s, j1s)):
            if j1 <= j0:
                continue
            inside = np.ones(j1 - j0, dtype=bool)
            for j in rest:
                inside &= (bt[j, j0:j1] >= box[j][0][blk]) & (bt[j, j0:j1] <= box[j][1][blk])
            cols = j0 + np.flatnonzero(inside)
            if not cols.size:
                continue
            near = bt[:, None, cols]
            rows = max(1, PAIR_BUDGET // cols.size)
            for r0 in range(i0, i1, rows):
                r1 = min(r0 + rows, i1)
                yield oa[r0:r1], ob[cols], self.squared_distances(at[:, r0:r1, None], near)

    def squared_distances(self, a: Array, b: Array) -> Array:
        """Squared periodic distances from coordinate stacks ``a`` and ``b``, (dim, ...), that
        broadcast against each other: coordinate by coordinate and summed in coordinate order,
        the operations and order of ``(displacement**2).sum(-1)``."""
        s = None
        for j, per in enumerate(self.periodic):
            d = b[j] - a[j]
            if per:
                d += np.pi
                np.mod(d, TWO_PI, out=d)
                d -= np.pi
            d *= d
            s = d if s is None else np.add(s, d, out=s)
        return s

    def distance(self, a: Array, b: Array) -> float | Array:
        disp = self.displacement(a, b)
        return np.sqrt((disp**2).sum(axis=-1))

    @property
    def sides(self) -> tuple[ScalarField, ...]:
        """The domain inequalities other than the boundary function."""
        return tuple(fn for fn in self.domain if fn is not self.boundary)

    def contains(self, points: Array, slack: float = 0.0) -> Array:
        """Boolean mask of points satisfying every domain inequality (see :func:`holds`)."""
        return holds(self.domain, jets.seed(np.atleast_2d(np.asarray(points, dtype=float)), order=0), slack)


def holds(fields: Sequence[ScalarField], jc: Sequence[Jet], slack: float) -> Array:
    """Mask of the seeded points where every field is at most ``slack``; a NaN never holds."""
    ok = np.ones(jc[0].n, dtype=bool)
    for fn in fields:
        ok &= fn(jc).value <= slack
    return ok


@dataclass(frozen=True)
class SmoothMap:
    """A smooth coordinate change between charts, evaluated on jets."""

    source: Chart
    target: Chart
    forward: Callable[[Sequence[Jet]], list[Jet]]

    def apply(self, points: Array) -> Array:
        """Wrapped image points, from order-0 jets."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.target.wrap(jets.values(self.forward(jets.seed(pts, order=0))))

    def jacobian(self, points: Array) -> Array:
        """Stack of forward Jacobians, shape (n, target_dim, source_dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = self.forward(jets.seed(pts, order=1))
        return np.stack([j.grad for j in out], axis=1)


# ----------------------------------------------------------------------
# connected components


def _components(n: int, src: Array, dst: Array) -> Array:
    """Label each of n nodes with the smallest index in its component.

    Each round hooks the roots of both ends of every edge ``(src[k], dst[k])``
    to the smaller one, then jumps pointers until every label is a root.
    """
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    label = np.arange(n)
    while True:
        low = np.minimum(label[src], label[dst])
        new = label.copy()
        np.minimum.at(new, label[src], low)
        np.minimum.at(new, label[dst], low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


# ----------------------------------------------------------------------
# sampling

_BATCH = 2048
_MAX_CANDIDATES = 1_000_000
_MIN_ACCEPT_RATIO = 1e-4


def sample_domain(chart: Chart, n: int, rng: np.random.Generator) -> Array:
    """Draw n interior points uniformly from the chart domain.

    Rejection sampling against the domain inequalities.  Candidates are drawn
    in a fixed stream so results are prefix-stable in n.  Raises
    EmptyDomainSuspected when the acceptance ratio stays below 1e-4 after a
    million candidates.
    """
    lo = np.asarray(chart.box_lo, dtype=float)
    hi = np.asarray(chart.box_hi, dtype=float)
    accepted: list[Array] = []
    total = 0
    got = 0
    while got < n:
        cand = rng.uniform(lo, hi, size=(_BATCH, chart.dim))
        total += _BATCH
        mask = chart.contains(cand)
        hit = cand[mask]
        if hit.shape[0]:
            accepted.append(hit)
            got += hit.shape[0]
        if total >= _MAX_CANDIDATES and got < max(1, total * _MIN_ACCEPT_RATIO):
            raise EmptyDomainSuspected(
                f"chart {chart.name!r}: {got} acceptances from {total} candidates"
            )
        if total >= 50 * _MAX_CANDIDATES:
            raise EmptyDomainSuspected(
                f"chart {chart.name!r}: sampling budget exhausted at {got}/{n}"
            )
    return np.concatenate(accepted, axis=0)[:n]


_RAY_BATCH = 256
_RAY_STEPS = 400
_RAY_BLOCK = 16


def _bisect_boundary(chart: Chart, inside: Array, outside: Array):
    """Bisect segment batches [inside, outside] onto the boundary zero level.

    Returns (points, ok_mask) after at most 80 halvings; rows whose final
    residual reaches 1e-9 are flagged out instead of raising.  It stops once
    a halving moves no bracket, since an unmoved row meets the same midpoint
    and sign again: the result is 80 halvings' bit for bit.  A NaN row never
    compares equal, so its batch runs all 80.
    """
    a, b = inside.copy(), outside.copy()
    fa = chart.boundary(jets.seed(a, order=0)).value
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = chart.boundary(jets.seed(mid, order=0)).value
        same = (fm > 0) == (fa > 0)
        prev = a, b
        a = np.where(same[:, None], mid, a)
        fa = np.where(same, fm, fa)
        b = np.where(same[:, None], b, mid)
        if np.array_equal(a, prev[0]) and np.array_equal(b, prev[1]):
            break
    mid = 0.5 * (a + b)
    ok = np.abs(chart.boundary(jets.seed(mid, order=0)).value) < 1e-9
    return mid, ok


def sample_boundary(
    chart: Chart,
    n: int,
    rng: np.random.Generator,
    accept: Callable[[Array], Array] | None = None,
) -> Array:
    """Draw n points on the boundary zero level by ray casting.

    Each attempt pairs an interior sample with a random direction and marches
    in steps of 1% of the widest box side, at most 400 of them, until the
    boundary function changes sign, or until another domain inequality fails
    :func:`holds` (as a NaN does), which abandons the ray.  A crossing is
    bisected onto the zero level; a residual of 1e-9 or more drops the point.
    Rays advance in fixed-size batches so the accepted sequence is
    prefix-stable in n.  Every live ray takes a block of 16 steps per
    evaluation: the block's points come from the same repeated additions
    ``pos + step * dir`` as single steps would, the boundary function and the
    other inequalities are evaluated once over the stacked block, and each
    ray stops at its first event, so the result is the one-step march's bit
    for bit.  ``accept`` optionally filters found points: it takes each ray
    batch's points, shape ``(m, dim)``, and returns a boolean mask of the
    ones to keep (glued models use it to mask regions replaced by a handle).
    Raises BoundaryNotFound after 1024 consecutive failed rays, four empty batches.
    Batches are marched until their crossings could fill the request (a
    batch yields at most one point per crossing) or spend the failure
    budget; then all their crossings are bisected in one call, and each
    batch's points are kept, filtered and counted in batch order, so points,
    errors and the end state of ``rng`` are a batch-at-a-time loop's bit for bit.
    """
    if chart.boundary is None:
        raise BoundaryNotFound(f"chart {chart.name!r} has no boundary function")
    lo = np.asarray(chart.box_lo, dtype=float)
    hi = np.asarray(chart.box_hi, dtype=float)
    span = float(np.max(hi - lo))
    step = 0.01 * span
    sides = chart.sides
    out: list[Array] = []
    got = 0
    failures = 0
    pending: list[tuple[Array, Array]] = []  # crossing segments of each batch not yet bisected
    while got < n:
        sizes = [inner.shape[0] for inner, _ in pending]
        if pending and (got + sum(sizes) >= n or failures + _RAY_BATCH * len(pending) >= 1024):
            found, ok = np.zeros((0, chart.dim)), np.zeros(0, dtype=bool)
            if sum(sizes):
                found, ok = _bisect_boundary(chart, *(np.concatenate(s) for s in zip(*pending)))
            ends = np.cumsum(sizes)[:-1]
            for pts, keep in zip(np.split(found, ends), np.split(ok, ends)):
                batch_pts = chart.wrap(pts[keep])
                if accept is not None and batch_pts.shape[0]:
                    batch_pts = batch_pts[np.asarray(accept(batch_pts), dtype=bool)]
                if batch_pts.shape[0]:
                    out.append(batch_pts)
                    got += batch_pts.shape[0]
                    failures = 0
                else:
                    failures += _RAY_BATCH
            pending = []
            continue
        if failures >= 1024:
            raise BoundaryNotFound(
                f"chart {chart.name!r}: {failures} consecutive rays missed the boundary"
            )
        starts = sample_domain(chart, _RAY_BATCH, rng)
        dirs = rng.normal(size=(_RAY_BATCH, chart.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        inner = np.zeros_like(starts)
        outer = np.zeros_like(starts)
        crossed = np.zeros(_RAY_BATCH, dtype=bool)
        idx = np.flatnonzero(chart.boundary(jets.seed(starts, order=0)).value <= 0)
        pos = starts[idx]
        for done in range(0, _RAY_STEPS, _RAY_BLOCK):
            if idx.size == 0:
                break
            k = min(_RAY_BLOCK, _RAY_STEPS - done)
            delta = step * dirs[idx]
            block = np.empty((k + 1,) + pos.shape)
            block[0] = pos
            for s in range(k):
                block[s + 1] = block[s] + delta
            jc = jets.seed(block[1:].reshape(-1, chart.dim), order=0)
            hit = (chart.boundary(jc).value >= 0).reshape(k, -1)
            event = hit | ~holds(sides, jc, 0.0).reshape(k, -1)
            # each ray's first event; a crossing is kept even if another
            # inequality also trips at the same step
            first = event.argmax(axis=0)
            cols = np.arange(idx.size)
            ended = event[first, cols]
            won = ended & hit[first, cols]
            inner[idx[won]] = block[first[won], cols[won]]
            outer[idx[won]] = block[first[won] + 1, cols[won]]
            crossed[idx[won]] = True
            idx = idx[~ended]
            pos = block[k, ~ended]
        pending.append((inner[crossed], outer[crossed]))
    return np.concatenate(out, axis=0)[:n]
