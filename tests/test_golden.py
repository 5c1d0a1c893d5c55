"""Golden output digests: every public output, bit for bit.

Each case computes one output at fixed seeds and small sizes and hashes
its exact bytes (arrays as little-endian float64 with their shape,
payloads as JSON, whose float repr round-trips exactly). A refactor or
an optimization must leave every digest unchanged; a change that means
to alter an output updates its digest and says why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from blocknorm import (
    AR1,
    ARCH1,
    Batch,
    BigSmall,
    IIDNormal,
    NORMAL,
    Interlace,
    SimConfig,
    TwoSampleData,
    batch_partition,
    bbsb_partition,
    block_sums,
    estimate_tail,
    i_n,
    i_n_star,
    interlace_partition,
    ks_distance,
    ref_cdf,
    ref_upper,
    simulate_stats,
    simultaneous_ci,
    student_t,
    t_n_star,
    table1,
    two_sample_w,
    w_n,
    w_n_star,
)
from blocknorm.cli import main
from blocknorm.stats import make_kernel

N = 300
REPS = 8192  # two Monte Carlo chunks
PROCESSES = {"iid": IIDNormal(), "ar1": AR1(rho=0.5), "arch1": ARCH1(b=0.5)}
SCHEMES = {
    "Wn": BigSmall(12, 3),
    "WnStar": BigSmall(12, 3),
    "In": Interlace(10),
    "InStar": Interlace(10),
    "TnStar": Batch(10),
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part, dtype="<f8")
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        else:
            h.update(json.dumps(part).encode())
    return h.hexdigest()


def _config(proc: str, kind: str) -> SimConfig:
    return SimConfig(PROCESSES[proc], N, SCHEMES[kind], kind, REPS, 20141 + len(kind))


def _simulate(proc, kind):
    return _digest(simulate_stats(_config(proc, kind)))


def _tail(proc, kind):
    t = estimate_tail(_config(proc, kind), workers=2)
    return _digest(t.x, t.mc_tail, t.ref_tail, t.ratio, t.mc_se, t.degenerate_count, t.ref.label())


def _series(n=N, seed=7):
    return np.random.default_rng(seed).standard_normal(n) + 0.1


def _table1():
    return _digest(table1())


# the three studentized statistics against their exact t laws, and one
# normal sample against the normal
def _ks():
    parts = []
    for kind in ("TnStar", "InStar", "WnStar"):
        ref = make_kernel(kind, SCHEMES[kind], N).ref
        parts.append((kind, ref.label(), ks_distance(simulate_stats(_config("iid", kind)), ref)))
    parts.append(("normal", ks_distance(np.random.default_rng(5).standard_normal(4000), NORMAL)))
    return _digest(parts)


REF_DISTS = (NORMAL,) + tuple(student_t(df) for df in (1, 2, 3, 9, 19, 141))
# dense across both signs and through 0, plus tiny, far-tail and overflowing |x|
_REF_EDGES = np.array([5e-324, 1e-300, 1e-8, 37.6, 1e3, 1e8, 1e200])
REF_X = np.concatenate([np.arange(-2000, 2001) * 0.01, _REF_EDGES, -_REF_EDGES])


def _ref_scalar(fn):
    return lambda: _digest(*[np.array([fn(d, float(x)) for x in REF_X]) for d in REF_DISTS])


def _ci():
    z = np.random.default_rng(3).standard_normal((240, 4)).cumsum(axis=0) * 0.1
    parts = []
    for m, use_t in ((None, True), (None, False), (6, True)):
        ci = simultaneous_ci(z, alpha=0.05, m=m, use_t=use_t)
        parts.append(ci.as_dict())
    return _digest(*parts)


def _block_sums():
    x = _series()
    parts = []
    for part, tag in (
        (bbsb_partition(N, 12, 3), "big"),
        (bbsb_partition(N, 12, 3), "small"),
        (interlace_partition(N, 10), "odd"),
        (batch_partition(N, 7), "batch"),
    ):
        s = block_sums(x, part, tag)
        parts += [s.values, s.block_length, s.k, [(b.start, b.end, b.tag) for b in part.blocks]]
    return _digest(*parts)


def _scalars():
    x = _series()
    values = [
        w_n(x, 12, 3),
        w_n_star(x, 12, 3, mu=0.05),
        i_n(x, 10),
        i_n_star(x, 10, mu=0.05),
        t_n_star(x, 10),
        two_sample_w(TwoSampleData(x, _series(250, 8)), 9, 4),
    ]
    return _digest([(v.kind, v.value, v.k, v.ref.label()) for v in values])


def _cli(argv, csv_out=False):
    def run(capsys):
        assert main(argv) == 0
        out = capsys.readouterr()
        payload = json.loads(out.err if csv_out else out.out)
        manifest = payload if csv_out else payload["manifest"]
        del manifest["duration_seconds"]
        return _digest(out.out if csv_out else "", payload)

    return run


def _with_panel(argv):
    def run(capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        z = np.random.default_rng(12).standard_normal((160, 3))
        np.savetxt(tmp_path / "panel.csv", z, delimiter=",")
        (tmp_path / "mu0.csv").write_text("0.1,0,-0.2\n")
        return _cli(argv)(capsys)

    return run


CASES = {}
for _proc in PROCESSES:
    for _kind in SCHEMES:
        CASES[f"simulate-{_proc}-{_kind}"] = (lambda p=_proc, k=_kind: _simulate(p, k))
        CASES[f"tail-{_proc}-{_kind}"] = (lambda p=_proc, k=_kind: _tail(p, k))
CASES.update(table1=_table1, ci=_ci, block_sums=_block_sums, scalars=_scalars, ks=_ks)
CASES.update(ref_upper=_ref_scalar(ref_upper), ref_cdf=_ref_scalar(ref_cdf))
CLI_CASES = {
    "cli-table1-csv": _cli(["table1"], csv_out=True),
    "cli-simulate-json": _cli(
        ["simulate", "--process", "arch1", "--b", "0.3", "--a", "2", "--stat", "w-star",
         "--m1", "10", "--m2", "4", "--n", "200", "--reps", "3000", "--seed", "11",
         "--mu0", "0.01", "--format", "json", "--workers", "2"]
    ),
    "cli-grid-csv": _cli(
        ["simulate", "--process", "ar1", "--rho-grid", "0:0.8:0.4", "--stat", "t-star",
         "--m", "8", "--n", "160", "--reps", "2000", "--seed", "5", "--x", "1.6:2.4:0.4"],
        csv_out=True,
    ),
    "cli-grid-json": _cli(
        ["simulate", "--process", "arch1", "--b-grid", "0.2:0.6:0.4", "--stat", "i",
         "--m", "8", "--n", "160", "--reps", "2000", "--seed", "6", "--x", "1.6:2.4:0.4",
         "--format", "json"]
    ),
}
PANEL_CASES = {
    "cli-ci-json": _with_panel(["ci", "panel.csv", "--alpha", "0.1"]),
    "cli-test-json": _with_panel(["test", "panel.csv", "--mu0", "mu0.csv", "--m", "5", "--no-use-t"]),
}

GOLDEN = {
    "block_sums": "b1b98eed42d4f70e0208aac993fd8b850bab2760e10ba2ac884df115825f54ed",
    "ci": "fef9e161da313f0d0cc4f7679ca396705c4e2462af127dd3a0bca84590992368",
    "cli-ci-json": "d7457fa1315a0fb90619ec6b6543a49f1351b04a1d0a2fc5b2c461e3fa984f5f",
    "cli-grid-csv": "789ff01e736393925f45d755d080db9c07816169087b23f364f2472568208e51",
    "cli-grid-json": "3143517fc2a51d7cebb7ca8485fa5ab297c949d44f1e5da64d38f843b23ea887",
    "cli-simulate-json": "463437183a68d6a5331848aa0abbfced3d49e0c39e3b6128f04296942c25cb0e",
    "cli-table1-csv": "9ef71a7aae294a414a5f41644cf7138f250472ee0772158436cc49a70486dece",
    "cli-test-json": "9bb22a8589a9ed16d7dfd1ef5f91b1c25d4c27d4ee93ec3ef113beefe6074789",
    "ks": "1fec075be4a909a4bf6483b10ec388de8338332e07bea9165752a177e0f6618c",
    "ref_cdf": "3aab0e3c24c86e9670c0c0d0f9de785ac763be8bf9597fc108ab80fa8789a096",
    "ref_upper": "b20e057f912756a8543e78a5dcc73b5d81aeae7a621ccfc972ee3854c24c7482",
    "scalars": "8bdee9febf488e69daa9c9ce6fff940769c2ec1d62440866124b2ffc1e47f026",
    "simulate-ar1-In": "6748c51788b68893e1aa5d1979eb8920f773968a1f9e2647b73982cdcc2bc8eb",
    "simulate-ar1-InStar": "f12876fe528e87c2185867a2c1b3a23ebbd2ca0b0112a18a19472df21c038c7e",
    "simulate-ar1-TnStar": "b58c9e47a2d2df4988873d22734172282573a5aa7310913b3176e90ec4dc9b5d",
    "simulate-ar1-Wn": "c003f233118ce203c22ae6904d47732656de50f827ff77bd78071db89b59edc0",
    "simulate-ar1-WnStar": "a261d10c7e55a83c4b5d9eadd8dee6d762287bc7897fb30926b7ed10c5d6415f",
    "simulate-arch1-In": "1e4b3c68b1a8e950ef1c734570e80403f50dacc1e0d4ded805c8d6f3194760ca",
    "simulate-arch1-InStar": "d82c70027beb71563677bf3b76f4a28771f7f37711576d6ffa936f233207a44c",
    "simulate-arch1-TnStar": "d89a4731b8b28af8b16804fe86bb3c9bb023bd0abe99139c781c015a0d4c1f88",
    "simulate-arch1-Wn": "5ff81b0d5dbe4fcb4dc1975de23d89542c04fb19c4febd47ebede636ff29b741",
    "simulate-arch1-WnStar": "70e6f8c88db29c7e9e12193535ea61624bc6feacd3ffe0e3807ac3346a52d0ca",
    "simulate-iid-In": "610f927dc5ecbf0503314babd1bc3a67f5049397915ffe147f5fc6a6add067fe",
    "simulate-iid-InStar": "302496f694c761ae4bc2e7aacf681362ee2a4910da7bb2b9524d8d2cea0861f8",
    "simulate-iid-TnStar": "4ef0399573df1c36958ebaa62337ca66fc596273509ba4059ecfd194f19a91c3",
    "simulate-iid-Wn": "5e99f608b2aaa3d0f61e6005b769d9043c0f7f8289d095da9c4e8f07d201d6a4",
    "simulate-iid-WnStar": "8471ab5f88f0af5e9eb82f81b87211d74e0479141fdfea4d90bd10df5c3066d1",
    "table1": "0254c298c128fae630343ce8c8f6e5b99ab3accba27020725990769410a132bc",
    "tail-ar1-In": "a72d23cd2a9c7f73f97690fe930e0e83e59a86c16cddba8c58ca30ecd3824961",
    "tail-ar1-InStar": "87c3afbb80ce081e4e3d4df56067c1abc9ee43850470d4b84421c565091d4665",
    "tail-ar1-TnStar": "f2db9aa534e6b84165aabc753f339d5cbb859cbe46987d0c2137cd4f1539b3c7",
    "tail-ar1-Wn": "5178eef162aba52a47963cbdccc03c652ecbb573d2f7e103b4448a98aeab6123",
    "tail-ar1-WnStar": "552b6ca8516a9e07adf58fefb3684eeb794628f6dee5f7980343e7290bc49dd7",
    "tail-arch1-In": "ea90000fdf896adc47ae3013cf06639e5aa736182fc3ec6c1b036cc119c8d967",
    "tail-arch1-InStar": "1f3a805f501046d00e1372636944ad527639104f4694ccf83e116d1c07cc8eb1",
    "tail-arch1-TnStar": "3160825e914e7ad41018762b4b063b42407d52e6884f49014a8c90eb26a54b17",
    "tail-arch1-Wn": "22058b3533ef4c3ab9ea3a3d1764a3a45dea0fae1efa09d843a3094044dfa089",
    "tail-arch1-WnStar": "15e093705a89157531d126542f1520c6c4b55a3bc9c932cb792598ed03951068",
    "tail-iid-In": "794e7baf2527eb94c13a60e37fe2a431f77d8ccb74f3aa2af6fcb12bb36ccbeb",
    "tail-iid-InStar": "7b0ade17d6ba5b6f66834fac43f820351fdfb1ecca4e06655134934da270b552",
    "tail-iid-TnStar": "7c8b07d2e42f260cc8a1f9b9c424696e8bcc8508bac8c9d5cd2f11785f0414c9",
    "tail-iid-Wn": "8d5ee53998f308733c1b761fe29d44300f299dcad3cc512e6402dd46f84f2985",
    "tail-iid-WnStar": "c6fd3eb1f40f923ec052252ec1e2bef4fad36762d108c2d6a28540e7b09a6e56",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest(name):
    assert CASES[name]() == GOLDEN[name]


@pytest.mark.parametrize("fn", [ref_upper, ref_cdf], ids=lambda f: f.__name__)
def test_array_path_reproduces_scalar_digest(fn):
    # one array call per distribution gives the bytes of the scalar loop
    assert _digest(*[fn(d, REF_X) for d in REF_DISTS]) == GOLDEN[fn.__name__]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_digest(name, capsys):
    assert CLI_CASES[name](capsys) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PANEL_CASES))
def test_cli_panel_digest(name, capsys, tmp_path, monkeypatch):
    assert PANEL_CASES[name](capsys, tmp_path, monkeypatch) == GOLDEN[name]
