"""Point-cloud questions at the edges of a radius-pruned distance sweep.

``critical._pairs_within``, ``critical._adaptive_radius`` and
``flow._orbits_near`` are checked against the full distance matrix of
``tests/oracles.py`` on the inputs where pruning along one coordinate could
go wrong: no coordinate to sweep, no spread to sweep along, pairs at the
radius itself, non-finite rows, and windows wider than one block's share.
Non-finite values sit only in non-periodic coordinates, where no ``np.mod``
sees them.
"""

import hashlib

import numpy as np
import pytest

from hamflow import critical, flow, registry
from hamflow.chart import PAIR_BUDGET, Chart
from oracles import all_distances, nearest_neighbour_distances, orbit_near, pairs_within

TWO_PI = 2 * np.pi

TORUS = Chart(
    name="torus", coords=("s", "t", "u"), periodic=(True, True, True),
    box_lo=(0.0, 0.0, 0.0), box_hi=(TWO_PI, TWO_PI, TWO_PI),
)
MIXED = Chart(
    name="mixed", coords=("t", "x", "y", "z"), periodic=(True, False, False, False),
    box_lo=(0.0, -1.0, -1.0, -1.0), box_hi=(TWO_PI, 1.0, 1.0, 1.0),
)


def _cloud(chart, rng, n):
    return rng.uniform(chart.box_lo, chart.box_hi, size=(n, chart.dim))


def _assert_pairs_and_orbit(chart, a, b, r):
    i, j = critical._pairs_within(chart, a, b, r)
    want_i, want_j = pairs_within(chart, a, b, r)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    # ``a`` as one orbit, and as one orbit per row
    for orbits in (a[None], a[:, None]):
        want = [orbit_near(chart, orbit, b, r) for orbit in orbits]
        assert flow._orbits_near(chart, orbits, b, r).tolist() == want


def _assert_radius(chart, pts):
    got = critical._adaptive_radius(chart, pts)
    want = 3.0 * float(np.median(nearest_neighbour_distances(chart, pts[:400], pts)))
    assert got == want or (np.isnan(got) and np.isnan(want))


@pytest.mark.parametrize("seed, n_a, n_b", [(0, 150, 1200), (1, 1, 3000), (2, 300, 300)])
def test_all_periodic_chart(seed, n_a, n_b):
    rng = np.random.default_rng(seed)
    a, b = _cloud(TORUS, rng, n_a), _cloud(TORUS, rng, n_b)
    for r in (0.05, 0.6, 4.0):
        _assert_pairs_and_orbit(TORUS, a, b, r)
    _assert_radius(TORUS, b)


@pytest.mark.parametrize("offset", [0.0, 0.05, 0.4])
def test_zero_spread_along_every_free_coordinate(offset):
    rng = np.random.default_rng(5)
    b = _cloud(MIXED, rng, 900)
    b[:, 1:] = [0.2, -0.3, 0.1]
    a = _cloud(MIXED, rng, 200)
    a[:, 1:] = [0.2 + offset, -0.3, 0.1]
    for r in (0.02, 0.1, 0.5):
        _assert_pairs_and_orbit(MIXED, a, b, r)
    _assert_radius(MIXED, b)
    _assert_radius(MIXED, np.concatenate([a, b]))


@pytest.mark.parametrize("x0, r", [(0.0, 0.1), (0.5, 0.125), (-0.25, 0.3)])
def test_pairs_at_the_radius_along_the_sweep(x0, r):
    # x has the widest free spread, so the sweep runs along it; each b row
    # below differs from its a row in x alone, by r or one ulp either side
    rng = np.random.default_rng(7)
    spread = _cloud(MIXED, rng, 1500)
    spread[:, 2:] *= 0.01
    a = np.array([[1.0, x0, 0.0, 0.0], [4.0, x0, 0.003, -0.002]])
    edges = []
    for row in a:
        for hi in (x0 + r, x0 - r):
            for x in (np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf)):
                edges.append([row[0], x, row[2], row[3]])
    b = np.concatenate([spread, edges])
    rng.shuffle(b)
    _assert_pairs_and_orbit(MIXED, a, b, r)
    for orbit in a:
        _assert_pairs_and_orbit(MIXED, orbit[None, :], b, r)


@pytest.mark.parametrize(
    "where",
    [
        [("a", 3, 1, np.nan)],
        [("b", 5, 2, np.nan)],
        [("a", 0, 1, np.inf)],
        [("b", 7, 3, -np.inf)],
        [("a", 2, 1, np.nan), ("b", 9, 2, np.inf)],
        [("a", 4, 1, np.inf), ("b", 4, 1, -np.inf)],
    ],
)
def test_nonfinite_entries_in_either_cloud(where):
    rng = np.random.default_rng(11)
    clouds = {"a": _cloud(MIXED, rng, 140), "b": _cloud(MIXED, rng, 2100)}
    for side, row, col, value in where:
        clouds[side][row, col] = value
    for r in (0.1, 0.4):
        _assert_pairs_and_orbit(MIXED, clouds["a"], clouds["b"], r)


@pytest.mark.parametrize("row", [0, 17, 399, 1000])
def test_nan_row_in_the_radius_cloud(row):
    # an infinite entry would meet itself on the diagonal (inf - inf), so
    # only NaN is planted here
    pts = _cloud(MIXED, np.random.default_rng(13), 1200)
    pts[row, 1] = np.nan
    _assert_radius(MIXED, pts)


@pytest.mark.parametrize("dense", [300, 2000])
def test_window_wider_than_one_block_share(dense):
    # every row of a sees more than PAIR_BUDGET / len(a) rows of b in its
    # sweep window: a narrow band, then a dense cluster inside a wide cloud
    rng = np.random.default_rng(17)
    a = _cloud(MIXED, rng, 300)
    a[:, 1] *= 0.05
    band = _cloud(MIXED, rng, 3000)
    band[:, 1] *= 0.05
    band[:, 2:] *= 0.04
    assert band.shape[0] > PAIR_BUDGET // a.shape[0]
    _assert_pairs_and_orbit(MIXED, a, band, 0.2)
    wide = _cloud(MIXED, rng, 2500)
    wide[:dense, 1] *= 0.01
    for r in (0.05, 0.3):
        _assert_pairs_and_orbit(MIXED, a, wide, r)
    _assert_radius(MIXED, wide)


@pytest.mark.parametrize("n_a, n_b", [(0, 50), (50, 0), (0, 0)])
def test_pairs_within_an_empty_cloud(n_a, n_b):
    rng = np.random.default_rng(19)
    a, b = _cloud(MIXED, rng, n_a), _cloud(MIXED, rng, n_b)
    i, j = critical._pairs_within(MIXED, a, b, 0.3)
    want_i, want_j = pairs_within(MIXED, a, b, 0.3)
    assert i.dtype == j.dtype == np.intp
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


@pytest.mark.parametrize("radius", [None, 0.05, 0.3])
def test_blocks_hold_every_close_pair_once_within_the_budget(radius):
    rng = np.random.default_rng(23)
    a = _cloud(MIXED, rng, 700)
    b = _cloud(MIXED, rng, 2600)
    b[:1500, 1] *= 0.02
    want = all_distances(MIXED, a, b)
    seen = np.zeros(want.shape, dtype=int)
    rows = np.zeros(a.shape[0], dtype=int)
    for ia, ib, s in MIXED.squared_distance_blocks(a, b, radius):
        assert 0 < s.size <= PAIR_BUDGET and s.shape == (ia.size, ib.size)
        assert np.array_equal(np.sqrt(s), want[np.ix_(ia, ib)])
        rows[ia] += 1
        seen[np.ix_(ia, ib)] += 1
    assert rows.max() == 1 and seen.max() == 1
    if radius is None:
        assert (seen == 1).all()
    else:
        assert (seen[want < radius] == 1).all()


# the nine zero_locus models at seed 0: sha256 over every _pairs_within
# edge array and the repr of every _adaptive_radius float, in call order,
# and the boundary_connectivity count
CONNECTIVITY_PINS = {
    "disc_d4(1,1)": ("5d0fbbb078db4f0e5a84c5977d277a3d9af229ce10e7275af73cc376dc117641", 1),
    "disc_d4(1,-1)": ("5d0fbbb078db4f0e5a84c5977d277a3d9af229ce10e7275af73cc376dc117641", 1),
    "cotangent_t2(1,0)": ("e81a05ace1051cf414b744ee6c6faaac04ba5fc8fb3e526e0a3a535d338a56af", 1),
    "s1_d3(1,0)": ("b56968745ec6c34bd03326586e2a11b9c059029963610c20e65be968d743ac27", 1),
    "free_action_planar(1)": ("d486ab093f9981c3edd756f5455e4f4ca17c56bdd70ae2907df7c033e8ab6017", 1),
    "free_action_planar(2)": ("9ee4cb99a5512b03bd5d0871e7c1c0e8249dc40f47c76d346f00c1aab4c1557a", 1),
    "free_action_planar(3)": ("4f8f3e38a583253e706bf006ad691651b8f92c7152e3dbd3b368ce49288e4e38", 1),
    "s1_d3(2,1)": ("b56968745ec6c34bd03326586e2a11b9c059029963610c20e65be968d743ac27", 1),
    "blowup_d4(1,-1,0.2)": ("87d9001b62a3f37b1b978deb15b3886265c2218d11e55d6d46222c0fcc199e54", 1),
}


@pytest.mark.parametrize("spec", list(CONNECTIVITY_PINS))
def test_connectivity_searches_match_pins(spec, monkeypatch):
    digest = hashlib.sha256()
    pairs, radius = critical._pairs_within, critical._adaptive_radius

    def record_pairs(*args):
        i, j = pairs(*args)
        digest.update(i.tobytes())
        digest.update(j.tobytes())
        return i, j

    def record_radius(*args):
        r = radius(*args)
        digest.update(repr(r).encode())
        return r

    monkeypatch.setattr(critical, "_pairs_within", record_pairs)
    monkeypatch.setattr(critical, "_adaptive_radius", record_radius)
    count = critical.boundary_connectivity(registry.build(spec), seed=0)
    assert (digest.hexdigest(), count) == CONNECTIVITY_PINS[spec]
