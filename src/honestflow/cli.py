"""Command line front end.

    honestflow run <config>
    honestflow honesty <config> --window s,t
    honestflow resolvent <config> --lambda L

``<config>`` is a builtin scenario name or a path to a config file.
``--tol``, ``--n-cap`` and ``--seed`` override config values.  Exit code 0
means every diagnostic came back honest, 2 means at least one dishonest
verdict, 3 means no dishonesty but at least one inconclusive check; exit
code 1 is reserved for usage and validation failures.

The CLI performs no arithmetic of its own: every reported number is
produced by a library call and only formatted here.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import honesty as _hon
from . import scenarios as _sc
from .geometry import Billiard

EXIT_CODES = {_hon.HONEST: 0, _hon.DISHONEST: 2, _hon.INCONCLUSIVE: 3}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which would collide with the
    # "dishonest" exit code; route everything through 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="honestflow", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="builtin scenario name or config file path")
        p.add_argument("--tol", type=float, default=None, help="override [run] tol")
        p.add_argument("--n-cap", type=int, default=None, help="override [run] n_cap")
        p.add_argument("--seed", type=int, default=None, help="override the ensemble seed")

    p_run = sub.add_parser("run", help="full report bundle (CSV series + text summary)")
    common(p_run)

    p_hon = sub.add_parser("honesty", help="honesty verdict on one time window")
    common(p_hon)
    p_hon.add_argument("--window", required=True, help="window as 's,t'")

    p_res = sub.add_parser("resolvent", help="frequency-domain honesty test")
    common(p_res)
    p_res.add_argument("--lambda", dest="lam", type=float, required=True, help="resolvent parameter")
    return parser


def _load(args) -> _sc.ScenarioConfig:
    cfg = _sc.resolve_config(args.config)
    return _sc.with_overrides(cfg, tol=args.tol, n_cap=args.n_cap, seed=args.seed)


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = _sc.run_scenario(cfg)
    series, summary = _sc.write_reports(result)
    sys.stdout.write(_sc.summary_text(result))
    sys.stdout.write(f"series: {series}\nsummary: {summary}\n")
    return EXIT_CODES[result.verdict]


def _parse_window(text: str) -> tuple:
    parts = text.split(",")
    try:
        s, t = (float(x) for x in parts)
    except ValueError as exc:
        raise _sc.ConfigError(f"--window: expected 's,t', got {text!r}") from exc
    if not (math.isfinite(s) and math.isfinite(t)):
        raise _sc.ConfigError(f"--window: need finite s,t, got {text!r}")
    if not 0 <= s < t:
        raise _sc.ConfigError("--window: need 0 <= s < t")
    return s, t


def _verdict_density(cfg: _sc.ScenarioConfig):
    # a ladder's initial density, refused by field when it is signed
    f = _sc.initial_density(cfg)
    if not f.is_nonnegative:
        raise _sc.ConfigError(_sc.SIGNED_DENSITY)
    return f


def _cmd_honesty(args) -> int:
    cfg = _load(args)
    window = _parse_window(args.window)
    if isinstance(cfg.geometry, Billiard):
        if window[0] != 0.0:
            raise _sc.ConfigError("--window: billiard honesty windows must start at 0")
        rep = _sc._window_decay(cfg, window)
        sys.stdout.write(
            f"scenario: {cfg.label}\n"
            f"window: {_sc._fmt(window[0])},{_sc._fmt(window[1])}\n"
            f"verdict: {rep.verdict}\n"
            f"max-rebounds: {rep.max_rebounds}\n"
            f"degenerate-weight: {_sc._fmt(rep.degenerate_weight)}\n"
            f"stat-tol: {_sc._fmt(rep.stat_tol)}\n"
            "tail-weights: " + ",".join(_sc._fmt(x) for x in rep.tail_weights) + "\n"
        )
        return EXIT_CODES[rep.verdict]
    f = _verdict_density(cfg)
    rep = _hon.honesty_on_interval(
        window, f, cfg.geometry, cfg.boundary,
        tol=cfg.tol, n_cap=cfg.n_cap, grid_points=cfg.grid_points,
    )
    ws, wt = rep.witness_window
    sys.stdout.write(
        f"scenario: {cfg.label}\n"
        f"window: {_sc._fmt(rep.window[0])},{_sc._fmt(rep.window[1])}\n"
        f"verdict: {rep.verdict}\n"
        f"witness-window: {_sc._fmt(ws)},{_sc._fmt(wt)}\n"
        f"witness-limit: {_sc._fmt(rep.witness_limit)}\n"
        f"grid-points: {rep.grid_points}\n"
    )
    return EXIT_CODES[rep.verdict]


def _cmd_resolvent(args) -> int:
    cfg = _load(args)
    if isinstance(cfg.geometry, Billiard):
        raise _sc.ConfigError("resolvent diagnostics are not defined for billiard scenarios")
    if not 0 < args.lam < math.inf:
        raise _sc.ConfigError("--lambda: resolvent parameter must be positive and finite")
    f = _verdict_density(cfg)
    rep = _hon.resolvent_defect(f, args.lam, cfg.geometry, cfg.boundary, tol=cfg.tol, n_cap=cfg.n_cap)
    sys.stdout.write(
        f"scenario: {cfg.label}\n"
        f"lambda: {_sc._fmt(rep.lam)}\n"
        f"verdict: {rep.verdict}\n"
        f"limit: {_sc._fmt(rep.limit_estimate)}\n"
        f"stabilized: {_sc._fmt(rep.stabilized)}\n"
        "entries: " + ",".join(_sc._fmt(x) for x in rep.entries) + "\n"
    )
    return EXIT_CODES[rep.verdict]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "honesty": _cmd_honesty, "resolvent": _cmd_resolvent}
    try:
        return handlers[args.command](args)
    except _sc.ConfigError as exc:
        print(f"honestflow: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"honestflow: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
