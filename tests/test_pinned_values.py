"""Seeded outputs pinned bit for bit.

The values below were recorded from the per-site loop implementation of the
lattice graph and its consumers.  Any rewrite of the index tables, the
batched link operations or the sweep order must reproduce them exactly:
floats are compared through ``float.hex`` and link arrays through the
SHA-256 of their little-endian complex128 bytes.
"""

import hashlib

import numpy as np
import pytest

from graphgauge import liealg, potential, sampler, wilson
from graphgauge.graphlat import build_hypercubic


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<c16").tobytes()).hexdigest()


@pytest.fixture(scope="module")
def su3_field():
    g = build_hypercubic((4, 4, 4, 4))
    return wilson.random_links(g, 3, np.random.default_rng(20240817))


def test_wilson_action_pinned(su3_field):
    act = wilson.wilson_action(su3_field, su3_field.graph, 5.7)
    assert act.raw_trace_sum.hex() == "0x1.e0b8c3e2ecf12p+12"
    assert act.normalized.hex() == "0x1.10ea12b538816p+13"


CHAINS = {
    "lexicographic": (
        ["0x1.997b479b2cc7bp-3", "0x1.0eedc337c443bp-2", "0x1.3c2a608d2afe9p-2", "0x1.432eb4dca501dp-2"],
        ["0x1.4000000000000p-1", "0x1.4000000000000p-1", "0x1.2000000000000p-1", "0x1.7000000000000p-1"],
        "1a9f5af8d74bd86456664df1552f428331f77cc359faeb46eaa06dd889ede822",
    ),
    # Recorded from the grouped sweep, which draws randomness per (parity,
    # direction) group.
    "checkerboard": (
        ["0x1.9a17448f980adp-3", "0x1.096391ecf04edp-2", "0x1.4e4a253ddcfd3p-2", "0x1.408ede36209d2p-2"],
        ["0x1.4800000000000p-1", "0x1.8800000000000p-1", "0x1.5000000000000p-1", "0x1.5000000000000p-1"],
        "00425ab2af085630d7cf08b67ea135a50d291a0486d046d60f7ea83b45c732ab",
    ),
}


@pytest.mark.parametrize("order", sorted(CHAINS))
def test_chain_pinned(order):
    plaquettes, acceptances, links = CHAINS[order]
    cfg = sampler.ChainConfig(
        beta=2.3, dims=(2, 2, 2, 2), n_colors=2, sweeps=6, burn_in=2,
        seed=11, hot_start=True, order=order,
    )
    series = sampler.run_chain(cfg)
    assert [v.hex() for v in series.avg_plaquette] == plaquettes
    assert [v.hex() for v in series.acceptance] == acceptances
    assert _digest(series.final_links.su) == links


def test_gauge_links_pinned(su3_field):
    g = su3_field.graph
    pure = wilson.pure_gauge_links(g, 2, np.random.default_rng(5))
    assert _digest(pure.su) == "7546fe661f0f5ebb91b71f834bb8f73ddb78c0831d2dc2ef793e84376fa7039b"
    rng = np.random.default_rng(9)
    omegas = np.stack([liealg.haar_random_sun(3, rng) for _ in range(g.n_events)])
    moved = wilson.local_gauge_links(su3_field, omegas)
    assert _digest(moved.su) == "86d8ed3c07421af3d4f5fe025123209fe13760ef895c21e2b3b70c644eac720e"


def test_haar_stack_matches_single_draws():
    for n in (2, 3):
        rng = np.random.default_rng(3)
        singles = np.stack([liealg.haar_random_sun(n, rng) for _ in range(50)])
        stack = liealg.haar_random_sun(n, np.random.default_rng(3), count=50)
        assert _digest(stack) == _digest(singles)


def test_flatness_residuals_pinned():
    g = build_hypercubic((2, 3, 2, 2))
    field = potential.random_field(g, 0.05, np.random.default_rng(3), scale=0.5)
    rep = potential.flatness_residual(field, g)
    digest = hashlib.sha256(rep.residuals.tobytes()).hexdigest()
    assert digest == "8ee1c26e9dc087c42a52fb38ccb9a187001d44f55b95f99bce704c781b2eea81"
    assert rep.max_residual.hex() == "0x1.e94efa8b5998fp-4"
    assert np.array_equal(rep.actions, g.n_events + g.n_transitions + np.arange(g.n_actions))


GAUGE_TRANSFORMS = {
    "global": (
        "8c811747c7af6086b993b419e44b8dc7227ad74dfce4e26b7897e77bbd56b161",
        "d4934a9f3e2fa92e6b37f58979e84d0972213ab2f7be36c9e75ff149c372d144",
    ),
    "local": (
        "6879dc160f6393e2d6c66aae5d3f4bcd7cd52734d879686714aa513204279138",
        "009a7ceadf7386ef1a53fb57ba7c907c934bd6d40cd26f7d9993909332fff7fa",
    ),
}


@pytest.mark.parametrize("mode", sorted(GAUGE_TRANSFORMS))
def test_gauge_transform_pinned(mode):
    g = build_hypercubic((2, 3, 4, 5))
    rng = np.random.default_rng(41)
    field = potential.random_field(g, 0.1, rng, scale=0.5)
    o = liealg.random_so5(rng)
    if mode == "local":
        o = np.stack([liealg.random_so5(rng, 0.3) for _ in range(g.n_transitions)])
    out = potential.gauge_transform(field, o, mode=mode)
    assert (_digest(out.g), _digest(out.h)) == GAUGE_TRANSFORMS[mode]
