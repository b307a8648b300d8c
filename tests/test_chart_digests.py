"""One sha256 per model over its order-2 chart data and transition images.

Each digest covers, for every chart: the box, the domain masks of every
inequality (and of the boundary-accept filter and the field margins where
declared) on box-uniform points, and at order-2 jets of domain samples the
moment map, the generator, the action at a fixed angle (run on jets by
:func:`oracles.jet_action` from the chart's weight table), omega, the
Liouville field, the kernel and the metric.  The contact form is left out:
it is derived from omega and the Liouville field, which are both hashed.  For every transition it covers
the predicate mask on source-domain samples and the order-2 image jets
there.  A refactor of a builder that changes any of these by one bit moves
its digest.
"""

import hashlib

import numpy as np
import pytest

from hamflow import jets, registry
from hamflow.chart import sample_domain
from hamflow.jets import Jet
from oracles import jet_action

ANGLE = 0.7

CHART_DATA_SHA256 = {
    "blowup_d4(1,-1,0.2)": "d0ec2e5488d4e61d7baf465fe41b64ba82c5d3acc434cc6e759087b476cd9912",
    "blowup_d4(3,1,0.2)": "0e1f42f96bb516993456c26c9ff02992d55d23b4c5305f5035935a20129ee680",
    "blowup_d4(2,-3,0.25)": "d2d35f2182696557184f236e76cf3779b1ac295016782bd465a95de9bc09e22c",
    "blowup_d4(-1,1,0.1)": "46261906fea406a5ff03335c1a311e3e059a617ef41848c1b3862df0db146748",
    "prequantization_s2()": "307645e347e930f77c7f14322700cd47e8e122f834ade3263007cbf26e58d903",
    "cotangent_s2()": "a7597db0e4471afa17020b0f030aec6112cdb314440e01143e28895ed731888f",
    "s1_d3(2,1)": "da0964914d52e5beb1b3a8c0e319f05a555c60aa314cf6cf9c15558040025c5d",
    "disc_d4(1,-1)": "d4662c4161f12c400c4496c42b82bfee7b9738edfecd153760abf0ee2ed5dc9e",
    "cotangent_t2(1,0)": "d21edfeb115e0aa97b2d09ced324f5a48e2310c28bd91c17145ff3e61ff6a765",
    "free_action_planar(2)": "52ffc413060886a7f3ebec569f1bb8d52b5d79d36fffbea142aee53d0fd3a083",
    "disc_bundle_over_surface()": "43bc7ccfd6672f4b82c423b86b3283927be47cfc162b6cf9a4a6b5665812acab",
    "weinstein_2handle()": "dcb095cd51499815a224713da05de2e00a65f2b68ee6d333de4873504a43a8df",
    "weinstein_1handle(1)": "3982214876d5f42a879b8ca586a0ba73c04ea53db92e95555479c0ab1e7fb6b1",
    "attach_2handle(s1_d3(1,0))": "3caea86215bd3e44a3a791a0d2a097da2843a18a49e4bbff0e2ee4ffcd12bd01",
}


def _feed(h, obj) -> None:
    if obj is None:
        h.update(b"none")
    elif isinstance(obj, Jet):
        for part in (obj.value, obj.grad, obj.hess):
            _feed(h, part)
    elif isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode() + repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d]" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


def _model_digest(model) -> str:
    h = hashlib.sha256()
    for ci, cd in enumerate(model.charts):
        chart = cd.chart
        _feed(h, (chart.name, chart.coords, chart.periodic, chart.box_lo, chart.box_hi))
        rng = np.random.default_rng([ci, 14])
        box = rng.uniform(chart.box_lo, chart.box_hi, size=(400, chart.dim))
        j0 = jets.seed(box, order=0)
        _feed(h, [fn(j0).value <= 0 for fn in chart.domain])
        _feed(h, None if chart.boundary is None else chart.boundary(j0).value)
        _feed(h, None if cd.boundary_accept is None else np.asarray(cd.boundary_accept(box)))
        _feed(h, cd.inside_margin(box))
        jc = jets.seed(sample_domain(chart, 40, rng), order=2)
        _feed(h, cd.hamiltonian(jc))
        _feed(h, cd.generator(jc))
        _feed(h, jet_action(cd.weights, ANGLE)(jc))
        _feed(h, cd.omega.coefficients(jc))
        for field in (cd.liouville, cd.kernel, cd.metric):
            _feed(h, None if field is None else field(jc))
        _feed(h, cd.kernel_complement)
    for k, tr in enumerate(model.transitions):
        src = model.charts[tr.src].chart
        pts = sample_domain(src, 40, np.random.default_rng([k, 15]))
        _feed(h, (tr.src, tr.dst, tr.map.source.name, tr.map.target.name))
        _feed(h, None if tr.valid is None else np.asarray(tr.valid(pts)))
        _feed(h, tr.map.forward(jets.seed(pts, order=2)))
    return h.hexdigest()


@pytest.mark.parametrize("spec", sorted(CHART_DATA_SHA256))
def test_chart_data_matches_pins(spec):
    assert _model_digest(registry.build(spec)) == CHART_DATA_SHA256[spec]
