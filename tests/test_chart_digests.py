"""One sha256 per model over its order-2 chart data and transition images.

Each digest covers, for every chart: the box, the domain masks of every
inequality (and of the boundary-accept filter and the field margins where
declared) on box-uniform points, and at order-2 jets of domain samples the
moment map, the generator, the action at a fixed angle, omega, alpha, the
Liouville field, the kernel and the metric.  For every transition it covers
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

ANGLE = 0.7

CHART_DATA_SHA256 = {
    "blowup_d4(1,-1,0.2)": "e7498a9854f20370533c01c5d8bf974c8c6a4ca5ccd28277980a326461bb6603",
    "blowup_d4(3,1,0.2)": "5ec9966ba775aeb977e0bedf7e717cf3fd22753ff3744f315ed72c4026004660",
    "blowup_d4(2,-3,0.25)": "66de3af89eafb31c833d1d96c1e3016e924f78ee6d46a5d8e8be734eb2160d18",
    "blowup_d4(-1,1,0.1)": "899da27d7aebd250bf02120025dd1be010044905ed97386aa35cafe50c36be40",
    "prequantization_s2()": "03211c5987509c21827959913735d6e7341970382826363a07c939ce15623e73",
    "cotangent_s2()": "7b999e8d87a1a9bbf4d8a066b66e57a918e480a430f85b226fb23ff949fd61d8",
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
        _feed(h, cd.action(ANGLE)(jc))
        _feed(h, cd.omega.coefficients(jc))
        _feed(h, cd.alpha().coefficients(jc))
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
