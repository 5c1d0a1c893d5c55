"""Command-line front end.

Subcommands: ``table1`` (reference tail table), ``simulate`` (Monte
Carlo tail estimation and parameter grids), ``ci`` (simultaneous
intervals from a panel CSV), ``test`` (mean-vector test). Exit codes:
0 success, 1 usage or configuration error, 2 data error, 3 internal
error.

Outputs are deterministic given the flags. Every run produces a
manifest (command echo, resolved configuration, master seed, RNG
algorithm, library version, wall-clock duration): JSON outputs embed
it, file CSV outputs get a ``<path>.manifest.json`` sidecar, and CSV on
stdout prints it to stderr.

Flag values beat config-file values beat defaults; the config file
(``--config``) holds flat ``key = value`` lines whose keys must be long
flag names of some subcommand. The worker count falls back to the
BLOCKNORM_WORKERS environment variable and never affects the numbers,
only the schedule.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .errors import BlocknormError, ConfigurationError, DataError, DomainError
from .mc import (
    DEFAULT_REPS,
    SimConfig,
    estimate_tail,
    ratio_grid,
    ratio_grid_csv,
    ratio_grid_payload,
    run_metadata,
    table1_csv,
    tail_table_csv,
    tail_table_payload,
)
from .blocks import BigSmall
from .infer import ci_text_table, mean_test, read_panel_csv, simultaneous_ci
from .procgen import AR1, ARCH1, RNG_ALGORITHM, IIDNormal
from .stats import SCHEME_BY_KIND, STAT_KIND_BY_FLAG


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_grid(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an inclusive grid (1e-9 slack), or one float."""
    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError:
        raise ConfigurationError(f"grid must be numbers start:stop:step, got {text!r}") from None
    if not all(map(math.isfinite, parts)):
        raise ConfigurationError(f"grid parts must be finite, got {text!r}")
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise ConfigurationError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = parts
    if step <= 0:
        raise ConfigurationError(f"grid step must be positive, got {step}")
    if stop < start - 1e-9:
        raise ConfigurationError(f"grid stop {stop} is below start {start}")
    count = int((stop - start) / step + 1e-9) + 1
    return [round(start + i * step, 12) for i in range(count)]


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class _Opts:
    """Flag > config file > default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = _read_config_file(args.config) if getattr(args, "config", None) else {}
        unknown = sorted(set(self.file) - args.config_keys)
        if unknown:
            raise ConfigurationError(f"{args.config}: unknown key {', '.join(unknown)} (not a long flag)")

    def get(self, name: str, cast, default=None):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is not None:
            return value
        if name in self.file:
            return _cast(name, self.file[name], cast)
        return default


def _cast(name: str, text: str, cast):
    """Convert a config-file or environment value; name it when it does not parse."""
    if cast is bool:
        if text.lower() in _TRUE:
            return True
        if text.lower() in _FALSE:
            return False
    else:
        try:
            return cast(text)
        except ValueError:
            pass
    raise ConfigurationError(f"{name} = {text!r} is not a valid {cast.__name__}")


def _workers(opts: _Opts) -> int:
    env = os.environ.get("BLOCKNORM_WORKERS")
    default = _cast("BLOCKNORM_WORKERS", env, int) if env else 1
    workers = opts.get("workers", int, default)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def _manifest(argv: list[str], config: dict, master_seed, started: float) -> dict:
    return {
        "command": "blocknorm " + " ".join(argv),
        "config": config,
        "master_seed": master_seed,
        "rng_algorithm": RNG_ALGORITHM,
        "library_version": __version__,
        "duration_seconds": round(time.monotonic() - started, 6),
    }


def _emit_csv(path: str, text: str, manifest: dict) -> None:
    payload = json.dumps(manifest, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
        sys.stderr.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(text)
        with open(path + ".manifest.json", "w") as fh:
            fh.write(payload)


def _emit_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_table1(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    opts = _Opts(args)
    output = opts.get("output", str, "-")
    text = table1_csv()
    _emit_csv(output, text, _manifest(argv, {"output": output}, None, started))
    return 0


PROCESS_BY_NAME = {"iid": IIDNormal, "ar1": AR1, "arch1": ARCH1}


def _build_process(opts: _Opts):
    """The process and, for a grid run, the values of its grid parameter."""
    name = opts.get("process", str)
    if name is None:
        raise ConfigurationError("simulate needs --process (iid, ar1 or arch1)")
    if name not in PROCESS_BY_NAME:
        raise ConfigurationError(f"unknown process {name!r} (expected iid, ar1 or arch1)")
    cls = PROCESS_BY_NAME[name]
    fields = [f.name for f in dataclasses.fields(cls)]
    for flag in ("rho", "rho-grid", "b", "b-grid", "a"):
        if flag.removesuffix("-grid") not in fields and opts.get(flag, str) is not None:
            raise ConfigurationError(f"--{flag} does not apply to the {name} process")
    params = {f: v for f in fields if (v := opts.get(f, float)) is not None}
    param = getattr(cls, "param", None)
    grid = opts.get(f"{param}-grid", str) if param else None
    if grid is not None and param in params:
        raise ConfigurationError(f"give either --{param} or --{param}-grid, not both")
    if param:
        params.setdefault(param, 0.0)
    return cls(**params), (None if grid is None else parse_grid(grid))


def _build_scheme(opts: _Opts, stat_kind: str):
    m = opts.get("m", int)
    m1 = opts.get("m1", int)
    m2 = opts.get("m2", int)
    if SCHEME_BY_KIND[stat_kind] is BigSmall:
        if m is not None:
            raise ConfigurationError("--m does not apply to the big-small statistics; use --m1/--m2")
        if m1 is None or m2 is None:
            raise ConfigurationError("big-small statistics need --m1 and --m2")
        return BigSmall(m1, m2)
    if m1 is not None or m2 is not None:
        raise ConfigurationError("--m1/--m2 only apply to the big-small statistics; use --m")
    if m is None:
        raise ConfigurationError("this statistic needs a block length --m")
    return SCHEME_BY_KIND[stat_kind](m)


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    opts = _Opts(args)

    stat_flag = opts.get("stat", str)
    if stat_flag is None:
        raise ConfigurationError("simulate needs --stat (w, w-star, i, i-star or t-star)")
    if stat_flag not in STAT_KIND_BY_FLAG:
        raise ConfigurationError(
            f"unknown statistic {stat_flag!r} (expected one of {', '.join(sorted(STAT_KIND_BY_FLAG))})"
        )
    stat_kind = STAT_KIND_BY_FLAG[stat_flag]

    process, param_grid = _build_process(opts)
    scheme = _build_scheme(opts, stat_kind)
    config = SimConfig(
        process=process,
        n=opts.get("n", int, 1000),
        scheme=scheme,
        stat_kind=stat_kind,
        reps=opts.get("reps", int, DEFAULT_REPS),
        master_seed=opts.get("seed", int, 0),
        x_grid=tuple(parse_grid(opts.get("x", str, "1.6:4.0:0.1"))),
        mu0=opts.get("mu0", float, 0.0),
    )
    workers = _workers(opts)
    output = opts.get("output", str, "-")
    fmt = opts.get("format", str, "csv")
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown format {fmt!r} (expected csv or json)")

    if param_grid is not None:
        grid = ratio_grid(config, param_grid, workers=workers)
        csv_text = ratio_grid_csv(grid)
        payload = ratio_grid_payload(grid)
    else:
        table = estimate_tail(config, workers=workers)
        csv_text = tail_table_csv(table)
        payload = tail_table_payload(table)

    manifest = _manifest(argv, run_metadata(config), config.master_seed, started)
    if fmt == "csv":
        _emit_csv(output, csv_text, manifest)
    else:
        payload["manifest"] = manifest
        _emit_json(output, payload)
    return 0


def _parse_m(opts: _Opts) -> int | None:
    m = opts.get("m", str, "auto")
    if m == "auto":
        return None
    try:
        return int(m)
    except ValueError:
        raise ConfigurationError(f"--m must be an integer or 'auto', got {m!r}") from None


def _cmd_ci(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    opts = _Opts(args)
    panel = read_panel_csv(args.input)
    alpha = opts.get("alpha", float, 0.05)
    use_t = opts.get("use-t", bool, True)
    ci = simultaneous_ci(panel, alpha=alpha, m=_parse_m(opts), use_t=use_t)

    output = opts.get("output", str, "-")
    config = {"input": args.input, "alpha": alpha, "m": ci.m, "use_t": use_t}
    payload = {"manifest": _manifest(argv, config, None, started), "ci": ci.as_dict()}
    _emit_json(output, payload)
    table = ci_text_table(ci)
    if output == "-":
        sys.stderr.write(table)
    else:
        sys.stdout.write(table)
    return 0


def _read_mu0(path: str, p: int) -> np.ndarray:
    arr = read_panel_csv(path)
    if arr.shape[0] != 1 and arr.shape[1] != 1:
        raise DataError(f"{path}: expected one row or one column of {p} values, got shape {arr.shape}")
    vec = arr.ravel()
    if vec.size != p:
        raise DataError(f"{path}: mu0 has {vec.size} values but the panel has {p} coordinates")
    return vec


def _cmd_test(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    opts = _Opts(args)
    panel = read_panel_csv(args.input)
    mu0 = _read_mu0(args.mu0, panel.shape[1])
    alpha = opts.get("alpha", float, 0.05)
    use_t = opts.get("use-t", bool, True)
    result = mean_test(panel, mu0, alpha=alpha, m=_parse_m(opts), use_t=use_t)

    output = opts.get("output", str, "-")
    config = {"input": args.input, "mu0": args.mu0, "alpha": alpha, "use_t": use_t}
    payload = {"manifest": _manifest(argv, config, None, started), "test": result.as_dict()}
    _emit_json(output, payload)
    # the decision is payload, not exit status
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", "-o", help="output path, or - for stdout (default)")
    sub.add_argument("--config", help="flat key = value file mirroring the long flag names")


def build_parser() -> _Parser:
    parser = _Parser(prog="blocknorm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"blocknorm {__version__}")
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = commands.add_parser("table1", help="write the reference tail table as CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_table1)

    p = commands.add_parser("simulate", help="Monte Carlo tail estimation / ratio grids")
    _add_common(p)
    p.add_argument("--process", choices=["iid", "ar1", "arch1"], help="path generator")
    p.add_argument("--rho", type=float, help="AR(1) coefficient")
    p.add_argument("--rho-grid", help="AR(1) coefficient grid start:stop:step")
    p.add_argument("--b", type=float, help="ARCH(1) coefficient")
    p.add_argument("--b-grid", help="ARCH(1) coefficient grid start:stop:step")
    p.add_argument("--a", type=float, help="ARCH(1) scale (default 1)")
    p.add_argument("--n", type=int, help="path length (default 1000)")
    p.add_argument("--stat", help="statistic: w, w-star, i, i-star or t-star")
    p.add_argument("--m", type=int, help="block length for i, i-star and t-star")
    p.add_argument("--m1", type=int, help="big block length for w and w-star")
    p.add_argument("--m2", type=int, help="small block length for w and w-star")
    p.add_argument("--mu0", type=float, help="hypothesized per-observation mean (default 0)")
    p.add_argument("--reps", type=int, help=f"replications (default {DEFAULT_REPS})")
    p.add_argument("--seed", type=int, help="64-bit master seed (default 0)")
    p.add_argument("--x", help="threshold grid start:stop:step (default 1.6:4.0:0.1)")
    p.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    p.add_argument("--workers", type=int, help="worker threads (default $BLOCKNORM_WORKERS or 1)")
    p.set_defaults(handler=_cmd_simulate)

    p = commands.add_parser("ci", help="simultaneous mean intervals from a panel CSV")
    p.add_argument("input", help="CSV panel, n rows by p numeric columns")
    _add_common(p)
    p.add_argument("--alpha", type=float, help="simultaneous level (default 0.05)")
    p.add_argument("--m", help="interlacing block length, or auto = round(n**0.25)")
    p.add_argument("--use-t", action=argparse.BooleanOptionalAction,
                   help="Student t quantiles instead of normal (default on)")
    p.set_defaults(handler=_cmd_ci)

    p = commands.add_parser("test", help="test a hypothesized mean vector")
    p.add_argument("input", help="CSV panel, n rows by p numeric columns")
    p.add_argument("--mu0", required=True, help="CSV with the hypothesized mean vector")
    _add_common(p)
    p.add_argument("--alpha", type=float, help="test level (default 0.05)")
    p.add_argument("--m", help="interlacing block length, or auto = round(n**0.25)")
    p.add_argument("--use-t", action=argparse.BooleanOptionalAction,
                   help="Student t quantiles instead of normal (default on)")
    p.set_defaults(handler=_cmd_test)

    # config-file keys of any subcommand are accepted, so one file can serve them all
    parser.set_defaults(config_keys={
        opt[2:] for sub in commands.choices.values() for action in sub._actions
        for opt in action.option_strings if opt.startswith("--")
    })
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.error("a subcommand is required (table1, simulate, ci or test)")
        return args.handler(args, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ConfigurationError, DomainError) as exc:
        sys.stderr.write(f"blocknorm: configuration error: {exc}\n")
        return 1
    except DataError as exc:
        sys.stderr.write(f"blocknorm: data error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"blocknorm: i/o error: {exc}\n")
        return 2
    except BlocknormError as exc:
        sys.stderr.write(f"blocknorm: error: {exc}\n")
        return 3
    except Exception:
        sys.stderr.write("blocknorm: internal error\n")
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
