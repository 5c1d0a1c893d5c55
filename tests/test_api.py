"""The public names, the module-level names the benchmark tracer rebinds, the classification
of non-real, non-finite and misshapen scalars and arrays, and the runtime's one dependency, numpy."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import blocknorm
from blocknorm import (
    AR1,
    ARCH1,
    BlocknormError,
    ConfigurationError,
    DataError,
    DomainError,
    HDLinear,
    IIDNormal,
    Interlace,
    NORMAL,
    SimConfig,
    TwoSampleData,
    cli,
    exponents_to_sizes,
    i_n,
    i_n_star,
    infer,
    ks_distance,
    mc,
    mean_test,
    procgen,
    ratio_grid,
    ref_upper,
    simultaneous_ci,
    stats,
    table1,
    two_sample_w,
    w_n_star,
)

SRC = str(Path(blocknorm.__file__).resolve().parents[1])


def _spans_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    missing = [name for name in blocknorm.__all__ if not hasattr(blocknorm, name)]
    assert missing == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from blocknorm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == blocknorm.__all__


def test_export_list_is_sorted_and_holds_no_module_or_private_name():
    assert blocknorm.__all__ == sorted(set(blocknorm.__all__))
    assert not [name for name in blocknorm.__all__ if name.startswith("_")]
    assert not [name for name in blocknorm.__all__ if isinstance(getattr(blocknorm, name), types.ModuleType)]


def test_every_exported_name_comes_from_a_submodule():
    # a name bound in __init__.py from outside the package would be exported too
    submodules = [importlib.import_module(f"blocknorm.{m.name}") for m in pkgutil.iter_modules(blocknorm.__path__)]
    foreign = [
        name for name in blocknorm.__all__
        if not any(getattr(module, name, None) is getattr(blocknorm, name) for module in submodules)
    ]
    assert foreign == []


def test_tracer_finds_and_restores_every_hook():
    spans = _spans_module()
    originals = (mc.generate_paths, stats.StatKernel.sums, infer.interlace_sums_matrix, cli.estimate_tail)
    tracer = spans.Tracer()
    spans.install(tracer, (mc, procgen, stats, infer, cli))
    try:
        assert tracer.missing == []
        # the hooked names are the ones the package really calls through
        with tracer.span("bench.pass"):
            mc.simulate_stats(SimConfig(IIDNormal(), 40, Interlace(5), "InStar", 8, 0))
            infer.simultaneous_ci(np.arange(80.0).reshape(40, 2) % 7, alpha=0.1, m=5)
        names = [s.name for s in tracer.spans]
        assert names.count("blocks.sums") == 2
        assert {"procgen.generate_paths", "mc.chunk", "stats.values", "procgen.seed"} <= set(names)
    finally:
        tracer.uninstall()
    assert (mc.generate_paths, stats.StatKernel.sums, infer.interlace_sums_matrix, cli.estimate_tail) == originals


def _config(**fields):
    base = dict(process=AR1(0.5), n=100, scheme=Interlace(5), stat_kind="InStar", reps=10, master_seed=0)
    return SimConfig(**{**base, **fields})


_SERIES = np.random.default_rng(0).standard_normal(200)
_PANEL = np.random.default_rng(1).standard_normal((200, 3))


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: _config(x_grid=("a",)), ConfigurationError, "x_grid"),
        (lambda: _config(x_grid=(1 + 1j,)), ConfigurationError, "x_grid"),
        (lambda: _config(x_grid=1.5), ConfigurationError, "x_grid"),
        (lambda: _config(mu0="a"), ConfigurationError, "mu0"),
        (lambda: _config(mu0=1j), ConfigurationError, "mu0"),
        (lambda: _config(mu0=[0.0]), ConfigurationError, "mu0"),
        (lambda: ratio_grid(_config(), 5), ConfigurationError, "parameter grid"),
        (lambda: ratio_grid(_config(), ["a"]), ConfigurationError, "parameter grid"),
        (lambda: AR1("a"), ConfigurationError, "rho"),
        (lambda: ARCH1(b="a"), ConfigurationError, "b"),
        (lambda: ARCH1(b=0.5, a="x"), ConfigurationError, "a"),
        (lambda: HDLinear(3, "a"), ConfigurationError, "decay"),
        (lambda: i_n_star(_SERIES, 10, mu="a"), ConfigurationError, "mu"),
        (lambda: w_n_star(_SERIES, 10, 5, mu=1j), ConfigurationError, "mu"),
        (lambda: simultaneous_ci(_PANEL, alpha="x"), ConfigurationError, "alpha"),
        (lambda: mean_test(_PANEL, "a", alpha=0.05), DataError, "mu0"),
        (lambda: exponents_to_sizes(100, "a", 0.5), ConfigurationError, "alpha1"),
        # integers beyond double range
        (lambda: AR1(10**400), ConfigurationError, "rho"),
        (lambda: _config(mu0=10**400), ConfigurationError, "mu0"),
        (lambda: ref_upper(NORMAL, 10**400), DomainError, "argument"),
        (lambda: i_n([10**400] * 10, 1), DataError, "series"),
        (lambda: ks_distance([10**400, 1.0], NORMAL), DataError, "sample"),
        # numeric strings
        (lambda: AR1("0.5"), ConfigurationError, "rho"),
        (lambda: ref_upper(NORMAL, "1.5"), DomainError, "argument"),
        (lambda: i_n_star(_SERIES, 10, mu="0"), ConfigurationError, "mu"),
        (lambda: mean_test(_PANEL, np.zeros(3), alpha="0.05"), ConfigurationError, "alpha"),
        # non-finite arrays
        (lambda: _config(x_grid=(float("nan"),)), ConfigurationError, "x_grid"),
        (lambda: _config(x_grid=(2.0, float("inf"))), ConfigurationError, "x_grid"),
        (lambda: ratio_grid(_config(), [0.1, float("nan")]), ConfigurationError, "parameter grid"),
        (lambda: simultaneous_ci(np.vstack([_PANEL, [0.0, np.inf, 0.0]]), alpha=0.05), DataError, "panel"),
        (lambda: two_sample_w(TwoSampleData([np.nan] * 10, _SERIES), 2, 1), DataError, "x1"),
        (lambda: i_n(np.append(_SERIES, -np.inf), 10), DataError, "series"),
        # arrays with more axes than one
        (lambda: ks_distance(_PANEL, NORMAL), DataError, "sample"),
        (lambda: table1([[1.6, 1.7]]), ConfigurationError, "x grid"),
        # non-finite grid points
        (lambda: table1([1.6, float("inf")]), ConfigurationError, "x grid"),
        (lambda: table1([float("nan")]), ConfigurationError, "x grid"),
    ],
    ids=[
        "x_grid-string", "x_grid-complex", "x_grid-scalar", "mu0-string", "mu0-complex", "mu0-list",
        "ratio_grid-scalar", "ratio_grid-string", "AR1-rho", "ARCH1-b", "ARCH1-a", "HDLinear-decay",
        "i_n_star-mu", "w_n_star-mu", "simultaneous_ci-alpha", "mean_test-mu0", "exponents_to_sizes-alpha1",
        "AR1-rho-huge-int", "mu0-huge-int", "ref_upper-huge-int", "i_n-huge-int", "ks_distance-huge-int",
        "AR1-rho-numeric-string", "ref_upper-numeric-string", "i_n_star-mu-numeric-string",
        "mean_test-alpha-numeric-string", "x_grid-nan", "x_grid-inf", "ratio_grid-nan", "panel-inf", "x1-nan",
        "series-inf", "ks_distance-2d", "table1-2d", "table1-inf", "table1-nan",
    ],
)
def test_non_real_input_is_a_classified_error_naming_the_field(call, error, field):
    with pytest.raises(error, match=f"^{field} must be ") as caught:
        call()
    assert isinstance(caught.value, BlocknormError)


def test_runtime_needs_numpy_only():
    # the test oracles scipy and mpmath are installed alongside, so a stray runtime import of
    # either would go unnoticed; here any import of them fails
    code = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
        "import numpy as np\n"
        "import blocknorm, blocknorm.cli\n"
        "args = ['simulate', '--process', 'iid', '--stat', 'i-star', '--m', '5', '--n', '100',\n"
        "        '--reps', '64', '--workers', '1', '--seed', '0']\n"
        "assert blocknorm.cli.main(args) == 0\n"
        "values = blocknorm.simulate_stats(blocknorm.SimConfig(\n"
        "    blocknorm.IIDNormal(), 100, blocknorm.Interlace(5), 'InStar', 64, 0))\n"
        "assert 0.0 < blocknorm.ks_distance(values, blocknorm.student_t(9)) < 1.0\n"
        "panel = np.random.default_rng(0).standard_normal((200, 3))\n"
        "blocknorm.mean_test(panel, np.zeros(3), alpha=0.05)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_loads_no_pool_or_command_line_module():
    # the benchmark's setup_s counts the import; mc loads its pool modules only when it starts a
    # pool, and the command-line module (argparse) loads only when asked for
    code = (
        "import sys\n"
        "import blocknorm\n"
        "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures', 'argparse') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
