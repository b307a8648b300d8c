"""Model container: per-chart Hamiltonian data plus transitions.

A model bundles one or more coordinate charts, each carrying the same
geometric package: the symplectic form, the moment map ("hamiltonian"), the
circle action as a table of integer weights, the Liouville field, and
optionally a compatible metric.  The Liouville field is the one declaration
of the contact structure: the boundary 1-form is its primitive
alpha = i_Y omega (:func:`liouville_primitive`), never stored.  The weight
table is the one declaration of the circle action: a chart refuses a table
that is not integer or not effective, and :func:`circle_action` turns it
into both the action, a family of chart self-maps, and its generator, the
action's derivative at angle 0.  Charts are glued by
transitions (smooth maps with validity predicates);
``HamiltonianModel.transfers`` is the one way across them.  The structural
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
from .chart import Chart, SmoothMap, sample_domain
from .errors import IneffectiveAction, MomentMapMismatch
from .forms import KForm, MetricField, ScalarField, VectorField
from .jets import Jet

Array = np.ndarray

ActionFamily = Callable[[float], Callable[[Sequence[Jet]], list[Jet]]]


@dataclass
class ChartData:
    """All model structure expressed in one chart.

    ``weights`` declares the circle action (see :func:`circle_action`).  On
    construction the chart refuses a non-integer weight (a ValueError: its
    rotation has no period 2 pi) and weights that are all zero or share a
    divisor (IneffectiveAction), then sets ``generator`` and ``action`` from
    the table, so the generator is the action's derivative at angle 0.  It
    keeps a read-only copy of the table, so neither the caller's dict nor an
    assignment can change the action afterwards.  Neither generator nor
    action is a field: ``dataclasses.replace`` cannot set one apart from the
    other.  ``boundary_accept``, like :attr:`Transition.valid`, takes a
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
        self.generator, self.action = circle_action(self.weights)

    def inside_margin(self, points: Array) -> Array:
        """Mask of the points inside every declared field margin."""
        ok = np.ones(points.shape[0], dtype=bool)
        if self.liouville_domain:
            jc = jets.seed(points, order=0)
            for fn in self.liouville_domain:
                ok &= fn(jc).value <= 0
        return ok

    def action_map(self, theta: float) -> SmoothMap:
        return SmoothMap(source=self.chart, target=self.chart, forward=self.action(theta))

    def gradient_field(self) -> VectorField:
        if self.metric is None:
            raise ValueError(f"chart {self.chart.name!r} carries no metric")
        return forms.metric_gradient(self.metric, self.hamiltonian, self.chart.dim)

    def alpha(self) -> KForm:
        """The Liouville primitive alpha = i_Y omega (see :func:`liouville_primitive`)."""
        omega, y = self.omega, self.liouville
        return KForm(1, omega.dim, lambda jc: liouville_primitive(y(jc), omega.coefficients(jc)))


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
    description: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def spec_string(self) -> str:
        if not self.params:
            return f"{self.name}()"
        args = ",".join(str(v) for v in self.params.values())
        return f"{self.name}({args})"

    def transitions_from(self, i: int) -> list[Transition]:
        return [t for t in self.transitions if t.src == i]

    def transfers(self, ci: int, point: Array, slack: float) -> Iterator[tuple[Transition, Array]]:
        """Lazily yield ``(transition, image)`` for each way out of chart ``ci``.

        Transitions come in model order; one counts when its predicate accepts
        ``point`` and its destination chart contains the image within ``slack``.
        """
        for tr in self.transitions_from(ci):
            if not np.all(tr.valid(np.atleast_2d(point))):
                continue
            image = tr.map.apply(point)[0]
            if self.charts[tr.dst].chart.contains(image, slack=slack)[0]:
                yield tr, image


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
    on top of any partial omega and Y take; the verifier seeds order 2.
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


def rotation(theta: float, a: Jet, b: Jet) -> tuple[Jet, Jet]:
    """Rotate the pair (a, b) by a fixed angle."""
    c, s = float(np.cos(theta)), float(np.sin(theta))
    return a * c - b * s, a * s + b * c


def circle_action(weights: Mapping[tuple[int, ...], float]) -> tuple[VectorField, ActionFamily]:
    """The generator and the action of a circle acting by weights.

    A key ``(i, j)`` rotates the (x_i, x_j) plane with weight w, a key
    ``(k,)`` shifts coordinate k with speed s; every other coordinate is
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

    def action(theta: float) -> Callable[[Sequence[Jet]], list[Jet]]:
        def fwd(jc: Sequence[Jet]) -> list[Jet]:
            out = list(jc)
            for key, w in weights.items():
                if len(key) == 1:
                    out[key[0]] = jc[key[0]] + w * theta
                else:
                    i, j = key
                    out[i], out[j] = rotation(w * theta, jc[i], jc[j])
            return out

        return fwd

    return generator, action


def moving_keys(
    weights: Mapping[tuple[int, ...], float], point: Array, radius: float
) -> list[tuple[tuple[int, ...], int]]:
    """The keys of a weight table that move ``point``, each with its weight.

    A rotation key ``(i, j)`` with w != 0 moves the point when its plane
    radius exceeds ``radius``; a translation key with w != 0 always moves
    it; a weight-0 key moves nothing.  The point is fixed when the list is
    empty, and the order of its stabilizer is the gcd of the listed weights.
    """
    return [
        (key, int(w))
        for key, w in weights.items()
        if w and (len(key) == 1 or math.hypot(point[key[0]], point[key[1]]) > radius)
    ]


def identity_metric(dim: int, scale: float = 1.0) -> MetricField:
    def g(jc: Sequence[Jet]) -> list[list[Jet]]:
        one = jets.constant(scale, jc[0])
        zero = jets.constant(0.0, jc[0])
        return [[one if i == j else zero for j in range(dim)] for i in range(dim)]

    return g


def form_matrix_jets(form: KForm, jc: Sequence[Jet]) -> list[list[Jet]]:
    """Full antisymmetric jet matrix of a 2-form."""
    d = form.dim
    zero = jets.constant(0.0, jc[0])
    mat = [[zero for _ in range(d)] for _ in range(d)]
    for (i, j), c in form.coefficients(jc).items():
        mat[i][j] = mat[i][j] + c
        mat[j][i] = mat[j][i] - c
    return mat


def contract_form(coeffs: dict, vectors: list[Array]) -> Array:
    """Evaluate a k-form (coefficient dict of jets) on k value vectors."""
    n = vectors[0].shape[0]
    out = np.zeros(n)
    for idx, c in coeffs.items():
        sub = np.stack([np.stack([v[:, i] for i in idx], axis=1) for v in vectors], axis=1)
        out += c.value * np.linalg.det(sub)
    return out
