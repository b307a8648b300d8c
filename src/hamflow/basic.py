"""Linear building-block models on balls, solid tori, and torus cotangent space.

Three families, all with polynomial data and the identity metric:

* ``disc_d4(m, n)``: the 4-ball with the weight-(m, n) rotation of two
  coordinate planes.  The moment map is a weighted sum of plane radii; the
  index of the single fixed point at the origin follows the weight signs.
* ``s1_d3(k, m)``: a solid torus cross an interval stack, S^1 x D^3, where
  the circle translates the periodic coordinate with speed k and rotates the
  (x, y) plane with weight m.
* ``cotangent_t2(m1, m2)``: the unit-disc cotangent bundle of the 2-torus
  with the lifted translation flow of slope (m1, m2).
"""

from __future__ import annotations

import numpy as np

from . import jets
from .chart import Chart
from .forms import constant_form
from .model import (
    ChartData,
    HamiltonianModel,
    assert_moment,
    identity_metric,
    symmetric_metric,
)


def disc_d4(m: int = 1, n: int = 1) -> HamiltonianModel:
    """Weight-(m, n) coordinate rotation of the unit 4-ball."""
    fm, fn = float(m), float(n)

    def sphere(jc):
        return jc[0] * jc[0] + jc[1] * jc[1] + jc[2] * jc[2] + jc[3] * jc[3] - 1.0

    chart = Chart(
        name="ball",
        coords=("x1", "y1", "x2", "y2"),
        periodic=(False, False, False, False),
        box_lo=(-1.02,) * 4,
        box_hi=(1.02,) * 4,
        domain=(sphere,),
        boundary=sphere,
    )
    omega = constant_form({(0, 1): 1.0, (2, 3): 1.0})

    def hamiltonian(jc):
        return (jc[0] * jc[0] + jc[1] * jc[1]) * (fm / 2) + (jc[2] * jc[2] + jc[3] * jc[3]) * (fn / 2)

    def liouville(jc):
        return [jc[i] * 0.5 for i in range(4)]

    cd = ChartData(
        chart=chart,
        omega=omega,
        hamiltonian=hamiltonian,
        weights={(0, 1): fm, (2, 3): fn},
        liouville=liouville,
        metric=identity_metric(1.0),
    )
    assert_moment(cd)
    return HamiltonianModel(
        name="disc_d4",
        params={"m": int(m), "n": int(n)},
        charts=[cd],
    )


def s1_d3(k: int = 1, m: int = 0) -> HamiltonianModel:
    """Circle times 3-ball: translate the loop with speed k, spin (x, y) with weight m."""
    fk, fm = float(k), float(m)

    def sphere(jc):
        return jc[1] * jc[1] + jc[2] * jc[2] + jc[3] * jc[3] - 1.0

    chart = Chart(
        name="tube",
        coords=("t", "x", "y", "h"),
        periodic=(True, False, False, False),
        box_lo=(0.0, -1.02, -1.02, -1.02),
        box_hi=(2 * np.pi, 1.02, 1.02, 1.02),
        domain=(sphere,),
        boundary=sphere,
    )
    omega = constant_form({(0, 3): -1.0, (1, 2): 1.0})

    def hamiltonian(jc):
        return jc[3] * fk + (jc[1] * jc[1] + jc[2] * jc[2]) * (fm / 2)

    def liouville(jc):
        zero = jets.constant(0.0, jc[0])
        return [zero, jc[1] * 0.5, jc[2] * 0.5, jc[3]]

    @symmetric_metric
    def metric(_jc):
        # constant compatible metric whose gradient of the boundary function
        # is parallel to the expanding field, so collar flow signs track H
        return {(0, 0): 2.0, (1, 1): 1.0, (2, 2): 1.0, (3, 3): 0.5}

    cd = ChartData(
        chart=chart,
        omega=omega,
        hamiltonian=hamiltonian,
        weights={(0,): fk, (1, 2): fm},
        liouville=liouville,
        metric=metric,
    )
    assert_moment(cd)
    return HamiltonianModel(
        name="s1_d3",
        params={"k": int(k), "m": int(m)},
        charts=[cd],
    )


def cotangent_t2(m1: int = 1, m2: int = 0) -> HamiltonianModel:
    """Unit-disc cotangent bundle of the 2-torus with a lifted slope flow."""
    f1, f2 = float(m1), float(m2)

    def codisc(jc):
        return jc[2] * jc[2] + jc[3] * jc[3] - 1.0

    chart = Chart(
        name="codisc",
        coords=("t1", "t2", "x", "y"),
        periodic=(True, True, False, False),
        box_lo=(0.0, 0.0, -1.02, -1.02),
        box_hi=(2 * np.pi, 2 * np.pi, 1.02, 1.02),
        domain=(codisc,),
        boundary=codisc,
    )
    omega = constant_form({(0, 2): -1.0, (1, 3): -1.0})

    def hamiltonian(jc):
        return jc[2] * f1 + jc[3] * f2

    def liouville(jc):
        zero = jets.constant(0.0, jc[0])
        return [zero, zero, jc[2], jc[3]]

    cd = ChartData(
        chart=chart,
        omega=omega,
        hamiltonian=hamiltonian,
        weights={(0,): f1, (1,): f2},
        liouville=liouville,
        metric=identity_metric(1.0),
    )
    assert_moment(cd)
    return HamiltonianModel(
        name="cotangent_t2",
        params={"m1": int(m1), "m2": int(m2)},
        charts=[cd],
    )
