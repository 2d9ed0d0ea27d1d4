"""Seeded outputs pinned bit for bit.

The values below were recorded from the per-site loop implementation of the
lattice graph and its consumers.  Any rewrite of the index tables, the
batched link operations or the sweep order must reproduce them exactly:
floats are compared through ``float.hex`` and link arrays through the
SHA-256 of their little-endian complex128 bytes.  The chain, one-plaquette
and gauge-link pins were re-recorded once, for the closed-form proposals
and the component-major products, which move their last bits only: every
seeded accept decision is unchanged.  The chain and ``mc-run`` pins were
re-recorded once more when a sweep began to draw all its proposals and then
all its accept thresholds, in place of both per group: that reorders the
random stream, so they are new samples of the same chain.
"""

import hashlib
import json

import numpy as np
import pytest

from graphgauge import cli, liealg, potential, sampler, wilson
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
    # Recorded from the sweep that draws every proposal of the sweep, in sweep
    # order, and then every accept threshold.
    "lexicographic": (
        ["0x1.b405102331af5p-3", "0x1.3c8950cdc1655p-2", "0x1.4879ef92c0c15p-2", "0x1.619067b0eb458p-2"],
        ["0x1.4000000000000p-1", "0x1.3000000000000p-1", "0x1.4800000000000p-1", "0x1.4800000000000p-1"],
        "9b11e4494d6cc68d155dc9e2b8504e320e2ff512a9bff7647a9a173decd9be03",
    ),
    "checkerboard": (
        ["0x1.e7c56b5de6ec8p-3", "0x1.42679d1001b06p-2", "0x1.64b923fc58438p-2", "0x1.685a38ba687ebp-2"],
        ["0x1.4800000000000p-1", "0x1.f000000000000p-2", "0x1.2000000000000p-1", "0x1.5000000000000p-1"],
        "ff5140d39145f6148aeb97b03c281d57174b713b3105ae22d354c380689f3252",
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


# Recorded from the per-step chain, which drew each step's three proposal
# angles and its accept uniform with separate generator calls, and
# re-recorded for the closed-form SU(2) proposals.
ONE_PLAQUETTE_CHAINS = {
    # (beta, n_steps, step_scale, seed, burn_in): SHA-256 of the <f8 samples
    (0.0, 3000, 0.25, 8, 0): "f60862810d3a7afb00b8974e86de2a1b5a31bc87ac84fc47d3ca9ead5970f515",
    (0.5, 20000, 0.5, 5, 1000): "a75944af0d4d899bc2f7383c0fa159abf78a56772700fbba4431906fdc1b79bd",
    (2.0, 20000, 0.5, 6, 1000): "8a7cffbbbac5fc22c510a77a42b540738ccd34d1349f99239ce89c08844b8adf",
    (4.0, 5000, 1.0, 7, 100): "914cdd8d7159d4b7a656b9331d76a11e0dd5f891ba3b1b163be0def9ba8c9717",
}


@pytest.mark.parametrize("case", sorted(ONE_PLAQUETTE_CHAINS))
def test_one_plaquette_chain_pinned(case):
    beta, n_steps, step_scale, seed, burn_in = case
    samples = sampler.one_plaquette_chain(
        beta, n_steps, step_scale=step_scale, seed=seed, burn_in=burn_in
    )
    assert len(samples) == n_steps - burn_in
    digest = hashlib.sha256(np.ascontiguousarray(samples, dtype="<f8").tobytes()).hexdigest()
    assert digest == ONE_PLAQUETTE_CHAINS[case]


def test_gauge_links_pinned(su3_field):
    g = su3_field.graph
    pure = wilson.pure_gauge_links(g, 2, np.random.default_rng(5))
    assert _digest(pure.su) == "1e5633c84eaf297bbb5f6381bfc4859c6a74c964247007bcc17495c2fec1f939"
    rng = np.random.default_rng(9)
    omegas = np.stack([liealg.haar_random_sun(3, rng) for _ in range(g.n_events)])
    moved = wilson.local_gauge_links(su3_field, omegas)
    assert _digest(moved.su) == "a5ad88bfde35cf2aeb03c83f20f5a6f010824c3cca00f66c69b3967048bd128b"


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


# "global" is one matrix at every transition, "local" one per transition.
# The "global" digests were re-recorded when one matrix began to run the
# per-transition formula (exactly antisymmetric torsion); the earlier
# three-operand einsum differed by at most 3.3e-16 in g and 6.7e-16 in h.
GAUGE_TRANSFORMS = {
    "global": (
        "4129f9349732f3a8b730245be1984fa3301040a4e734d9802ab197fa239d017b",
        "8e1b45fae253e75683841fcd8532c8961fdd1779945890e504858674f151076e",
    ),
    "local": (
        "6879dc160f6393e2d6c66aae5d3f4bcd7cd52734d879686714aa513204279138",
        "009a7ceadf7386ef1a53fb57ba7c907c934bd6d40cd26f7d9993909332fff7fa",
    ),
}


@pytest.mark.parametrize("kind", sorted(GAUGE_TRANSFORMS))
def test_gauge_transform_pinned(kind):
    g = build_hypercubic((2, 3, 4, 5))
    rng = np.random.default_rng(41)
    field = potential.random_field(g, 0.1, rng, scale=0.5)
    o = liealg.random_so5(rng)
    if kind == "local":
        o = np.stack([liealg.random_so5(rng, 0.3) for _ in range(g.n_transitions)])
    out = potential.gauge_transform(field, o)
    assert (_digest(out.g), _digest(out.h)) == GAUGE_TRANSFORMS[kind]


# SHA-256 of the `save_links` and `save_field` files, recorded from the
# per-link and per-row writers that preceded the shared graph-owned format.
SNAPSHOTS = {
    (2, 2, 2, 2): (
        2,
        "6636d869a8801ec3b73f038de231a769c322e6af9346c55439d68782a307d417",
        "9579d48ca4bc6e7f407db3afc4012ca5a6ba3a2d7e42e4e56bbdbf5e4d492689",
    ),
    (2, 3, 4, 5): (
        3,
        "3a2c4741c1bed1ec282cd8dba72c80cc5caa34a7784623fa743b2b56c1cbd1e8",
        "fd2b1bf09549762750b48575e839b42a3a02d0945fd6bd177aceb23f29be2421",
    ),
}


@pytest.mark.parametrize("dims", sorted(SNAPSHOTS))
def test_snapshot_bytes_pinned(dims, tmp_path):
    n_colors, links_digest, field_digest = SNAPSHOTS[dims]
    g = build_hypercubic(dims)
    rng = np.random.default_rng(20241018)
    lf = wilson.random_links(g, n_colors, rng, so5=liealg.random_so5(rng))
    field = potential.random_field(g, 0.1, rng)
    links_path = tmp_path / "links.txt"
    field_path = tmp_path / "field.txt"
    wilson.save_links(lf, links_path)
    potential.save_field(field, field_path)
    assert hashlib.sha256(links_path.read_bytes()).hexdigest() == links_digest
    assert hashlib.sha256(field_path.read_bytes()).hexdigest() == field_digest

    back = wilson.load_links(links_path, g)
    assert back.n_colors == n_colors
    assert back.su.tobytes() == lf.su.tobytes()
    assert back.so5.tobytes() == lf.so5.tobytes()
    loaded = potential.load_field(field_path, g)
    assert np.float64(loaded.eps).tobytes() == np.float64(field.eps).tobytes()
    assert loaded.g.tobytes() == field.g.tobytes()
    assert loaded.h.tobytes() == field.h.tobytes()


# SHA-256 of each README command's JSON report at seed 1 (spec, records and
# summary, `wall_time_s` dropped, keys sorted), recorded with the per-kind cast
# helpers that preceded the shared parameter rules; `mc-run`'s re-recorded with
# the chain pins above, `embedded-violation`'s with the two-pass stencil (largest
# relative change of a report float 2.2e-13, on records.1.sigma).
CLI_REPORTS = {
    ("covariance-sweep", "--seed", "1", "--param", "n_transforms=30"):
        "a4461c541506842d3bd51d35130bcead6cc64772132f3fa2a938fabb47de7b29",
    ("oned-demo", "--param", "profile=kink", "--param", "delta=0.05"):
        "b0cc2b1767535a5ed2fa2cedd5e2f16feb83ecac0ac8ea1befbea0e1c749b99b",
    ("embedded-violation", "--param", "eps_list=[0.2,0.1]"):
        "2639dbd04c18971656512a8d40d46038bcd06684f7cc598fa4025f256200b784",
    ("continuum-check",):
        "2a4b66036b34d6123527b58001f0dfe50759ec975a4cb1fef6a547b3f90060d4",
    ("mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "sweeps=200"):
        "5cc0366839718142cc7d85f16446cee313ca02db688b99cf900b7566e5c3db55",
    ("flatness-check", "--seed", "1"):
        "db2326fe5d2db7b5fce2b6a18cc7ad19009cd6cda87e5725a1c3c2cf830f2d59",
}


def _report_digest(argv, out) -> str:
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    del report["summary"]["wall_time_s"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("argv", list(CLI_REPORTS), ids=lambda argv: argv[0])
def test_cli_reports_pinned(argv, tmp_path):
    assert _report_digest(argv, tmp_path / "report.json") == CLI_REPORTS[argv]
