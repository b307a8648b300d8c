"""Model container: per-chart Hamiltonian data plus transitions.

A model bundles one or more coordinate charts, each carrying the same
geometric package: the symplectic form, the moment map ("hamiltonian"), the
circle action as a table of integer weights, the Liouville field, and
optionally a compatible metric.  The Liouville field is the one declaration
of the contact structure: the boundary 1-form is its primitive
alpha = i_Y omega (:func:`liouville_primitive`), never stored.  The weight
table is the one declaration of the circle action: a chart refuses a table
that is not integer or not effective, reads the action at a stack of angles
off it as matrices (``ChartData.action_map``: every a_theta is
R(theta) x + b(theta)), and :func:`circle_action` turns it into the
generator, the action's derivative at angle 0.  Charts are glued by
transitions (smooth maps with validity predicates);
``HamiltonianModel.transfers`` is the one way across them, for a point
batch: flows cross one row at a time, and the groupings of
:mod:`hamflow.critical` whole clouds.  ``HamiltonianModel.boundary_clouds``
is the one walk over the charts' seeded boundary draws.  The structural
identities tying all of this together are checked by :mod:`hamflow.verifier`,
not assumed here; the per-sample residuals of the moment and expansion
identities live here, shared by the verifier and the builders' self-check
(:func:`assert_moment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import forms, jets
from .chart import Chart, SmoothMap, holds, sample_boundary, sample_domain
from .errors import BoundaryNotFound, IneffectiveAction, MomentMapMismatch
from .forms import KForm, MetricField, ScalarField, VectorField
from .jets import Jet

Array = np.ndarray


@dataclass
class ChartData:
    """All model structure expressed in one chart.

    ``weights`` declares the circle action: :meth:`action_map` reads it off
    the table, and :func:`circle_action` turns it into the generator.  On
    construction the chart refuses a non-integer weight (a ValueError: its
    rotation has no period 2 pi) and weights that are all zero or share a
    divisor (IneffectiveAction), then sets ``generator`` from the table, so
    the generator is the action's derivative at angle 0.  It keeps a
    read-only copy of the table, so neither the caller's dict nor an
    assignment can change the action afterwards.  The generator is not a
    field: ``dataclasses.replace`` cannot set it apart from the table.
    ``boundary_accept``, like :attr:`Transition.valid`, takes a
    point batch of shape ``(n, dim)`` and returns a boolean mask; boundary
    sampling keeps only the points it accepts.
    """

    chart: Chart
    omega: KForm
    hamiltonian: ScalarField
    weights: Mapping[tuple[int, ...], float]
    liouville: VectorField
    metric: MetricField | None = None
    kernel: VectorField | None = None
    kernel_complement: tuple[int, ...] | None = None
    liouville_domain: tuple[ScalarField, ...] = ()
    boundary_accept: Callable[[Array], Array] | None = None

    def __post_init__(self) -> None:
        self.weights = MappingProxyType(dict(self.weights))
        for w in self.weights.values():
            if not float(w).is_integer():
                raise ValueError(f"weight {w} is not an integer: the action would not have period 2 pi")
        ws = tuple(int(w) for w in self.weights.values())
        if not any(ws):
            raise IneffectiveAction(f"weights {ws} act trivially")
        g = math.gcd(*ws)
        if g != 1:
            raise IneffectiveAction(f"weights {ws} have common divisor {g}; the circle acts with a kernel")
        self.generator = circle_action(self.weights)

    def inside_margin(self, points: Array) -> Array:
        """Mask of the points inside every declared field margin (see :func:`hamflow.chart.holds`)."""
        if not self.liouville_domain:  # most charts declare none: seed nothing for them
            return np.ones(points.shape[0], dtype=bool)
        return holds(self.liouville_domain, jets.seed(points, order=0), 0.0)

    def action_map(self, thetas: Array, points: Array) -> tuple[Array, Array]:
        """The action at each angle of ``thetas`` (K,) on ``points`` (n, d), as
        the unwrapped images (K, n, d) and the Jacobians (K, d, d).

        A key ``(i, j)`` of weight w maps (x_i, x_j) to
        (x_i c - x_j s, x_i s + x_j c), with c and s the cosine and sine of
        w theta; a key ``(k,)`` adds w theta to x_k; every other coordinate
        stays fixed.  Each key reads the input coordinates.
        """
        thetas, pts = np.asarray(thetas, dtype=float), np.asarray(points, dtype=float)
        images = np.repeat(pts[None], thetas.size, axis=0)
        jacs = np.repeat(np.eye(pts.shape[1])[None], thetas.size, axis=0)
        for key, w in self.weights.items():
            angle = w * thetas
            if len(key) == 1:
                images[..., key[0]] = pts[:, key[0]] + angle[:, None]
                continue
            i, j = key
            c, s = np.cos(angle), np.sin(angle)
            images[..., i] = pts[:, i] * c[:, None] - pts[:, j] * s[:, None]
            images[..., j] = pts[:, i] * s[:, None] + pts[:, j] * c[:, None]
            jacs[:, i, i], jacs[:, i, j], jacs[:, j, i], jacs[:, j, j] = c, -s, s, c
        return images, jacs

    def gradient_field(self) -> VectorField:
        if self.metric is None:
            raise ValueError(f"chart {self.chart.name!r} carries no metric")
        return forms.metric_gradient(self.metric, self.hamiltonian, self.chart.dim)

    def alpha(self) -> KForm:
        """The Liouville primitive alpha = i_Y omega (see :func:`liouville_primitive`)."""
        omega, y = self.omega, self.liouville
        return KForm(lambda jc: liouville_primitive(y(jc), omega.coefficients(jc)))


@dataclass
class Transition:
    """Directed chart gluing with a validity predicate on source points."""

    src: int
    dst: int
    map: SmoothMap
    valid: Callable[[Array], Array]


@dataclass
class HamiltonianModel:
    """A Hamiltonian circle-action model presented in coordinate charts."""

    name: str
    params: dict
    charts: list[ChartData]
    transitions: list[Transition] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def spec_string(self) -> str:
        if not self.params:
            return f"{self.name}()"
        args = ",".join(str(v) for v in self.params.values())
        return f"{self.name}({args})"

    def transitions_from(self, i: int) -> list[Transition]:
        return [t for t in self.transitions if t.src == i]

    def boundary_clouds(self, n: int, seed: int, stream: int) -> Iterator[tuple[int, ChartData, Array]]:
        """Lazily yield ``(chart index, chart data, points)`` for each chart whose boundary the rays
        find: ``sample_boundary``'s n points through the chart's ``boundary_accept``, drawn
        from the stream ``[seed, stream, chart index]``."""
        for ci, cd in enumerate(self.charts):
            if cd.chart.boundary is None:
                continue
            try:
                pts = sample_boundary(cd.chart, n, np.random.default_rng([seed, stream, ci]), accept=cd.boundary_accept)
            except BoundaryNotFound:  # no ray finds the boundary
                continue
            yield ci, cd, pts

    def transfers(self, ci: int, points: Array, slack: float) -> Iterator[tuple[Transition, Array, Array]]:
        """Lazily yield ``(transition, rows, images)`` for each way out of chart ``ci``.

        Transitions come in model order.  ``rows`` indexes the batch
        ``points``, shape ``(n, dim)``, where the predicate holds and the
        destination chart contains the wrapped image within ``slack``;
        ``images`` are those images.  A transition that takes no row is skipped.
        """
        for tr in self.transitions_from(ci):
            rows = np.flatnonzero(tr.valid(points))
            if rows.size == 0:
                continue
            images = tr.map.apply(points[rows])
            inside = self.charts[tr.dst].chart.contains(images, slack=slack)
            if inside.any():
                yield tr, rows[inside], images[inside]


@dataclass(frozen=True)
class Decomposition:
    """Surface fibration decomposition count (h, k): 2h + k = 1 + genus.

    ``h`` counts handle pieces, ``k`` counts annular pieces of the base
    surface; the constraint ties them to the genus.
    """

    h: int
    k: int


def enumerate_decompositions(genus: int) -> list[Decomposition]:
    """All decompositions (h, k), h >= 0, k >= 1, 2h + k = 1 + genus.

    Ordered by ascending h.  Genus 0 and 1 admit exactly one decomposition
    each: (0, 1) and (0, 2).
    """
    if genus < 0:
        raise ValueError(f"genus must be nonnegative, got {genus}")
    out = []
    for h in range(0, genus // 2 + 1):
        k = 1 + genus - 2 * h
        if k >= 1:
            out.append(Decomposition(h=h, k=k))
    return out


# ----------------------------------------------------------------------
# small helpers shared by the model constructors


def moment_residual(cd: ChartData, jc: Sequence[Jet]) -> Array:
    """Per-sample residual of the moment identity i_X omega = -dH at seeded jets.

    omega is evaluated once.  dH consumes one jet order, so order 1 suffices
    unless omega itself is d of a primitive that takes a partial, where a
    missing order raises JetOrderError.
    """
    contracted = forms.interior_coeffs(cd.generator(jc), cd.omega.coefficients(jc))
    dh = forms.d_coeffs({(): cd.hamiltonian(jc)}, cd.chart.dim)
    return forms.coeff_residual(contracted, {idx: -c for idx, c in dh.items()})


def liouville_primitive(y: Sequence[Jet], omega: forms.Coeffs) -> forms.Coeffs:
    """Coefficients of alpha = i_Y omega from evaluated Y and omega, in index order.

    Index order keeps every later sum over alpha's terms (wedges, pullbacks,
    pairings) in one fixed operand order, whatever order omega lists its terms.
    """
    return dict(sorted(forms.interior_coeffs(y, omega).items()))


def liouville_residual(cd: ChartData, jc: Sequence[Jet]) -> Array:
    """Per-sample residual of the expansion identity L_Y omega = omega at seeded jets.

    omega is evaluated once.  The Cartan formula's d consumes one jet order
    on top of any partial omega and Y take, so order 1 suffices unless one
    does, where a missing order raises JetOrderError.
    """
    omega = cd.omega.coefficients(jc)
    return forms.coeff_residual(forms.lie_coeffs(cd.liouville(jc), omega, cd.chart.dim), omega)


def assert_moment(cd: ChartData) -> None:
    """Builder self-check: the moment identity holds to 1e-9 at order-1 self-check points."""
    r = float(np.max(moment_residual(cd, jets.seed(self_check_points(cd), order=1))))
    if not np.isfinite(r) or r > 1e-9:
        raise MomentMapMismatch(
            f"chart {cd.chart.name!r}: generator does not match the hamiltonian "
            f"(residual {r:.3e} > 1.0e-09)"
        )


def self_check_points(cd: ChartData, n: int = 32, seed: int = 11) -> Array:
    rng = np.random.default_rng([seed, 1301])
    return sample_domain(cd.chart, n, rng)


def circle_action(weights: Mapping[tuple[int, ...], float]) -> VectorField:
    """The generator of a circle acting by weights (see :meth:`ChartData.action_map`).

    A key ``(i, j)`` rotates the (x_i, x_j) plane with weight w, a key
    ``(k,)`` shifts coordinate k at speed w; every other coordinate is
    fixed.  The generator is the action's derivative at angle 0.
    """
    moved = {k for key in weights for k in key}

    def generator(jc: Sequence[Jet]) -> list[Jet]:
        zero = jets.constant(0.0, jc[0]) if len(moved) < len(jc) else None
        out = [zero] * len(jc)
        for key, w in weights.items():
            if len(key) == 1:
                out[key[0]] = jets.constant(w, jc[0])
            else:
                i, j = key
                out[i], out[j] = jc[j] * (-w), jc[i] * w
        return out

    return generator


def symmetric_metric(entries: Callable[[Sequence[Jet]], Mapping[tuple[int, int], Jet | float]]) -> MetricField:
    """The metric whose entries (i, j), i <= j, a chart declares as jets or floats.

    Each entry is mirrored to (j, i) and an unlisted entry is 0.  A float
    becomes a constant jet of the batch's order, one per distinct value and
    call, so equal floats share it.  The metric's ``values(jc)`` is its values
    read, the ``(n, d, d)`` matrix taken straight from the entries: a float as
    it is, a jet's value, +0.0 where unlisted.  It builds no constant jet and
    equals the jet matrix's values bitwise, except for a float entry -0.0,
    which the jet matrix shares with its +0.0 zero.
    """

    def values(jc: Sequence[Jet]) -> Array:
        out = np.zeros((jc[0].n, len(jc), len(jc)))
        for (i, j), v in entries(jc).items():
            out[:, i, j] = out[:, j, i] = v.value if isinstance(v, Jet) else v
        return out

    def g(jc: Sequence[Jet]) -> list[list[Jet]]:
        zero = jets.constant(0.0, jc[0])
        consts = {0.0: zero}
        mat = [[zero] * len(jc) for _ in jc]
        for (i, j), v in entries(jc).items():
            if not isinstance(v, Jet):
                if v not in consts:
                    consts[v] = jets.constant(v, jc[0])
                v = consts[v]
            mat[i][j] = mat[j][i] = v
        return mat

    g.values = values
    return g


def identity_metric(scale: float) -> MetricField:
    return symmetric_metric(lambda jc: {(i, i): scale for i in range(len(jc))})


def form_matrix_jets(form: KForm, jc: Sequence[Jet]) -> list[list[Jet]]:
    """Full antisymmetric jet matrix of a 2-form, sized by the seeded coordinates."""
    d = len(jc)
    zero = jets.constant(0.0, jc[0])
    mat = [[zero for _ in range(d)] for _ in range(d)]
    for (i, j), c in form.coefficients(jc).items():
        mat[i][j] = mat[i][j] + c
        mat[j][i] = mat[j][i] - c
    return mat

