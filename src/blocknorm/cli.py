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

The parser alone states each option's type, default and choices. A
``--config`` file of flat ``key = value`` lines (keys: long flag names of
any subcommand) is parsed as ``--key=value`` tokens ahead of the command
line, so flags beat file values beat defaults. Every usage mistake is a
configuration error. The worker count falls back to the
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
    DEFAULT_X_GRID,
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
from .stats import KINDS, STAT_KIND_BY_FLAG


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigurationError(message)


MAX_GRID_POINTS = 100_000  # parse_grid rejects grids with more points


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
    span = (stop - start) / step + 1e-9  # inf when the quotient overflows
    if span >= MAX_GRID_POINTS:
        raise ConfigurationError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [round(start + i * step, 12) for i in range(int(span) + 1)]


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _config_tokens(path: str, command: str, options: dict[str, dict[str, argparse.Action]]) -> list[str]:
    """The file's keys for command as tokens; other subcommands' keys are dropped."""
    entries = _read_config_file(path)
    unknown = sorted(set(entries).difference(*options.values()))
    if unknown:
        raise ConfigurationError(f"{path}: unknown key {', '.join(unknown)} (not a long flag)")
    tokens = []
    for key, value in entries.items():
        action = options[command].get(key)
        if isinstance(action, argparse.BooleanOptionalAction):
            if value.lower() not in _TRUE | _FALSE:
                raise ConfigurationError(f"{key} = {value!r} is not a valid bool")
            tokens.append(f"--{key}" if value.lower() in _TRUE else f"--no-{key}")
        elif action is not None:
            tokens.append(f"--{key}={value}")  # '=' keeps values such as -1:1:0.5 whole
    return tokens


def _workers(args: argparse.Namespace) -> int:
    env = os.environ.get("BLOCKNORM_WORKERS") or "1"
    try:
        return int(env) if args.workers is None else args.workers
    except ValueError:
        raise ConfigurationError(f"BLOCKNORM_WORKERS = {env!r} is not a valid int") from None


def _manifest(argv: list[str], config: dict, master_seed, started: float) -> dict:
    return {
        "command": "blocknorm " + " ".join(argv),
        "config": config,
        "master_seed": master_seed,
        "rng_algorithm": RNG_ALGORITHM,
        "library_version": __version__,
        "duration_seconds": round(time.monotonic() - started, 6),
    }


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_csv(path: str, text: str, manifest: dict) -> None:
    _write(path, text)
    payload = json.dumps(manifest, indent=2) + "\n"
    if path == "-":
        sys.stderr.write(payload)
    else:
        _write(path + ".manifest.json", payload)


def _emit_json(path: str, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2) + "\n")


def _cmd_table1(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    _emit_csv(args.output, table1_csv(), _manifest(argv, {"output": args.output}, None, started))
    return 0


PROCESS_BY_NAME = {"iid": IIDNormal, "ar1": AR1, "arch1": ARCH1}


def _build_process(args: argparse.Namespace):
    """The process and, for a grid run, the values of its grid parameter."""
    if args.process is None:
        raise ConfigurationError("simulate needs --process (iid, ar1 or arch1)")
    cls = PROCESS_BY_NAME[args.process]
    fields = [f.name for f in dataclasses.fields(cls)]
    for flag in ("rho", "rho-grid", "b", "b-grid", "a"):
        if flag.removesuffix("-grid") not in fields and getattr(args, flag.replace("-", "_")) is not None:
            raise ConfigurationError(f"--{flag} does not apply to the {args.process} process")
    params = {f: v for f in fields if (v := getattr(args, f)) is not None}
    param = getattr(cls, "param", None)
    grid = getattr(args, f"{param}_grid") if param else None
    if grid is not None and param in params:
        raise ConfigurationError(f"give either --{param} or --{param}-grid, not both")
    if param:
        params.setdefault(param, 0.0)
    return cls(**params), (None if grid is None else parse_grid(grid))


def _build_scheme(args: argparse.Namespace, stat_kind: str):
    scheme_class = KINDS[stat_kind][1]
    if scheme_class is BigSmall:
        if args.m is not None:
            raise ConfigurationError("--m does not apply to the big-small statistics; use --m1/--m2")
        if args.m1 is None or args.m2 is None:
            raise ConfigurationError("big-small statistics need --m1 and --m2")
        return BigSmall(args.m1, args.m2)
    if args.m1 is not None or args.m2 is not None:
        raise ConfigurationError("--m1/--m2 only apply to the big-small statistics; use --m")
    if args.m is None:
        raise ConfigurationError("this statistic needs a block length --m")
    return scheme_class(args.m)


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    if args.stat is None:
        raise ConfigurationError("simulate needs --stat (w, w-star, i, i-star or t-star)")
    stat_kind = STAT_KIND_BY_FLAG[args.stat]

    process, param_grid = _build_process(args)
    scheme = _build_scheme(args, stat_kind)
    config = SimConfig(
        process=process,
        n=args.n,
        scheme=scheme,
        stat_kind=stat_kind,
        reps=args.reps,
        master_seed=args.seed,
        x_grid=DEFAULT_X_GRID if args.x is None else tuple(parse_grid(args.x)),
        mu0=args.mu0,
    )
    workers = _workers(args)
    meta = run_metadata(config)

    if param_grid is not None:
        grid = ratio_grid(config, param_grid, workers=workers)
        csv_text = ratio_grid_csv(grid)
        payload = ratio_grid_payload(grid)
        meta["config"][grid.param_name] = list(grid.param_values)  # the grid, not the base config's 0.0
    else:
        table = estimate_tail(config, workers=workers)
        csv_text = tail_table_csv(table)
        payload = tail_table_payload(table)

    manifest = _manifest(argv, meta, config.master_seed, started)
    if args.format == "csv":
        _emit_csv(args.output, csv_text, manifest)
    else:
        payload["manifest"] = manifest
        _emit_json(args.output, payload)
    return 0


def _block_length(text: str) -> int | None:
    """An argparse type for ci/test --m: an integer, or None for auto."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer or 'auto', got {text!r}") from None


def _cmd_ci(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    panel = read_panel_csv(args.input)
    ci = simultaneous_ci(panel, alpha=args.alpha, m=args.m, use_t=args.use_t)

    config = {"input": args.input, "alpha": args.alpha, "m": ci.m, "use_t": args.use_t}
    payload = {"manifest": _manifest(argv, config, None, started), "ci": ci.as_dict()}
    _emit_json(args.output, payload)
    # the table goes wherever the JSON does not
    (sys.stderr if args.output == "-" else sys.stdout).write(ci_text_table(ci))
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
    panel = read_panel_csv(args.input)
    mu0 = _read_mu0(args.mu0, panel.shape[1])
    result = mean_test(panel, mu0, alpha=args.alpha, m=args.m, use_t=args.use_t)

    config = {"input": args.input, "mu0": args.mu0, "alpha": args.alpha, "use_t": args.use_t}
    payload = {"manifest": _manifest(argv, config, None, started), "test": result.as_dict()}
    _emit_json(args.output, payload)
    # the decision is payload, not exit status
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", "-o", default="-", help="output path, or - for stdout (default %(default)s)")
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
    p.add_argument("--process", choices=list(PROCESS_BY_NAME), help="path generator")
    p.add_argument("--rho", type=float, help="AR(1) coefficient")
    p.add_argument("--rho-grid", help="AR(1) coefficient grid start:stop:step")
    p.add_argument("--b", type=float, help="ARCH(1) coefficient")
    p.add_argument("--b-grid", help="ARCH(1) coefficient grid start:stop:step")
    p.add_argument("--a", type=float, help=f"ARCH(1) scale (default {ARCH1.a:g})")
    p.add_argument("--n", type=int, default=1000, help="path length (default %(default)s)")
    p.add_argument("--stat", choices=list(STAT_KIND_BY_FLAG), help="statistic")
    p.add_argument("--m", type=int, help="block length for i, i-star and t-star")
    p.add_argument("--m1", type=int, help="big block length for w and w-star")
    p.add_argument("--m2", type=int, help="small block length for w and w-star")
    p.add_argument("--mu0", type=float, default=0.0, help="null mean per observation (default %(default)s)")
    p.add_argument("--reps", type=int, default=DEFAULT_REPS, help="replications (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed (default %(default)s)")
    p.add_argument("--x", help="threshold grid start:stop:step (default: the table1 grid)")
    p.add_argument("--format", choices=["csv", "json"], default="csv", help="format (default %(default)s)")
    p.add_argument("--workers", type=int,
                   help="worker threads, at most one per chunk and per CPU (default $BLOCKNORM_WORKERS or 1)")
    p.set_defaults(handler=_cmd_simulate)

    for name, handler, summary in (
        ("ci", _cmd_ci, "simultaneous mean intervals from a panel CSV"),
        ("test", _cmd_test, "test a hypothesized mean vector"),
    ):
        p = commands.add_parser(name, help=summary)
        p.add_argument("input", help="CSV panel, n rows by p numeric columns")
        _add_common(p)
        p.add_argument("--alpha", type=float, default=0.05, help="level alpha (default %(default)s)")
        p.add_argument("--m", type=_block_length, default="auto",
                       help="interlacing block length, or auto = round(n**0.25) (default %(default)s)")
        p.add_argument("--use-t", action=argparse.BooleanOptionalAction, default=True,
                       help="Student t quantiles instead of normal (default %(default)s)")
        if name == "test":
            p.add_argument("--mu0", required=True, help="CSV with the hypothesized mean vector")
        p.set_defaults(handler=handler)

    # each subcommand's long options by config-file key (the option's dest, dashed)
    parser.set_defaults(options={
        name: {a.dest.replace("_", "-"): a for a in sub._actions if a.option_strings and a.dest != "help"}
        for name, sub in commands.choices.items()
    })
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.error("a subcommand is required (table1, simulate, ci or test)")
        if args.config is not None:  # parse the file's tokens first, so the flags win
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, args.command, args.options)
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        return args.handler(args, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ConfigurationError, DomainError, MemoryError) as exc:  # a run too large to fit is misconfigured
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
