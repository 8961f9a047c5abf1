"""Command-line surface: simulate, check, manifold, sweep.

Exit codes: 0 success, 1 refused input (usage, scenario document, a file
that cannot be read or written, or any other input error), 2 numerical
failure during integration, 3 acceptance-criterion failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import yaml  # noqa: F401 -- perfbench/tracing.py patches `cli.yaml`

from . import smc
from .engine import MAX_LOG_ROWS, integrate
from .errors import (BlowdownError, IntegrationError, ParameterError,
                     ScenarioError)
from .scenario_io import (default_scenario, load_scenario, load_yaml,
                          parse_scenario, write_manifold, write_trajectory)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_ACCEPTANCE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (1, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


#: `simulate` flags, each setting the scenario document key it names.
_SIMULATE_KEYS = (("--t-end", "t_end", "S"),
                  ("--rtol", "tolerances.rtol", "R"),
                  ("--atol", "tolerances.atol", "A"),
                  ("--log-every", "log_interval", "S"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="blowdown",
                     description="Batch-digester blowdown simulator with "
                                 "sliding-mode discharge-flow control.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario to CSV")
    sim.add_argument("--scenario", metavar="FILE",
                     help="scenario YAML (omit for the shipped default)")
    sim.add_argument("--out", metavar="DIR", required=True,
                     help="output directory for trajectory.csv")
    for flag, key, var in _SIMULATE_KEYS:
        sim.add_argument(flag, dest=key, type=float, metavar=var,
                         help=f"sets the scenario key {key}")

    chk = sub.add_parser("check", help="run the acceptance suite")
    chk.add_argument("--scenario", metavar="FILE",
                     help="scenario YAML used for the trajectory criteria")

    man = sub.add_parser("manifold", help="emit the sliding-surface grid")
    man.add_argument("--out", metavar="FILE", required=True)
    man.add_argument("--e-range", nargs=2, type=float, default=[0.0, 1e-3],
                     metavar=("A", "B"))
    man.add_argument("--xi-range", nargs=2, type=float, default=[0.0, 10.0],
                     metavar=("A", "B"))
    man.add_argument("--steps", type=int, default=41, metavar="N")

    swp = sub.add_parser("sweep", help="run concurrent scenario variants")
    swp.add_argument("--scenario", metavar="FILE")
    swp.add_argument("--param", required=True, metavar="PATH",
                     help="dotted document path, e.g. parameters.k_smc")
    swp.add_argument("--values", required=True, metavar="V1,V2,...")
    swp.add_argument("--out", metavar="DIR", required=True)
    return parser


def _run_to_csv(scenario, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "trajectory.csv"
    write_trajectory(integrate(scenario), target)
    return target


def _cmd_simulate(args) -> int:
    doc = load_yaml(Path(args.scenario).read_text()) if args.scenario else {}
    for _, key, _ in _SIMULATE_KEYS:
        if (value := getattr(args, key)) is not None:
            _set_path(doc, key, value)
    target = _run_to_csv(parse_scenario(doc), Path(args.out))
    print(f"wrote {target}")
    return EXIT_OK


def _cmd_check(args) -> int:
    from . import acceptance  # only `check` needs the suite
    scenario = load_scenario(args.scenario) if args.scenario else None
    results = acceptance.run_all(scenario)
    for result in results:
        print(result.line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_ACCEPTANCE


def _cmd_manifold(args) -> int:
    if (n := args.steps) > MAX_LOG_ROWS ** 0.5:  # N² rows, a run's bound
        raise ParameterError(f"--steps {n} gives {n * n:,} rows, above "
                             f"{MAX_LOG_ROWS:,}")
    scenario = default_scenario()
    grids = smc.manifold_grid(args.e_range, args.xi_range,
                              scenario.parameters.lambda_q, args.steps)
    write_manifold(*grids, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _set_path(doc: dict, dotted: str, value: float) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node[key] = node.get(key) or {}  # empty, like an unset section
        node = node[key]
        if not isinstance(node, dict):
            raise ScenarioError(f"cannot descend into {key!r} in {dotted!r}")
    node[keys[-1]] = value


def _cmd_sweep(args) -> int:
    import concurrent.futures  # loads logging: only `sweep` needs it
    import copy
    tokens = [v.strip() for v in args.values.split(",") if v.strip()]
    try:
        named = {float(token): token for token in tokens}
    except ValueError as exc:
        raise ScenarioError(f"bad --values list: {exc}")
    if not named:
        raise ScenarioError("--values must name at least one value")
    if len(named) < len(tokens):  # a run's directory is its token as typed
        raise ScenarioError(f"--values {args.values!r} names a value twice")
    base = load_yaml(Path(args.scenario).read_text()) if args.scenario else {}

    runs = []
    for value, token in named.items():
        doc = copy.deepcopy(base)
        _set_path(doc, args.param, value)
        scenario = parse_scenario(doc)  # validate before launching anything
        runs.append((token, scenario))

    out_root = Path(args.out)
    # Processes, not threads: DOPRI5 steps in pure Python, holding the GIL,
    # and scipy's lsoda keeps global Fortran state, one problem per process.
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(len(runs), 8)) as pool:
        futures = [pool.submit(_run_to_csv, scenario,
                               out_root / f"{args.param}={token}")
                   for token, scenario in runs]
        for future in concurrent.futures.as_completed(futures):
            print(f"wrote {future.result()}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"simulate": _cmd_simulate, "check": _cmd_check,
               "manifold": _cmd_manifold, "sweep": _cmd_sweep}[args.command]
    try:
        return handler(args)
    except IntegrationError as exc:
        print(f"blowdown: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (BlowdownError, OSError) as exc:  # every refused input
        kind = "scenario error" if isinstance(exc, ScenarioError) else "error"
        print(f"blowdown: {kind}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
