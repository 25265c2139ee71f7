"""Command-line front end.

Subcommands: ``simulate`` (two-bath cycles), ``pump`` (single-bath pump
cycles), ``sweep`` (efficiency-power trade-off), ``verify`` (oracle and
invariant self-checks).  Numeric outputs are deterministic CSVs; ``--svg``
additionally renders charts and gnuplot-style ``.dat`` twins derived from
the same series.
"""

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import cycle_power, sweep_efficiency_power
from .config import load_config, parse_config
from .cycle import run_engine
from .exceptions import OttoKilnError
from .output import (
    TraceText,
    sweep_text,
    write_cycles_csv,
    write_dat,
    write_svg_chart,
    write_sweep_csv,
    write_timeseries_csv,
    write_wide_timeseries_csv,
)
from .verification import run_all_checks


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ottokiln",
        description="Deterministic quantum Otto heat-engine simulator on a truncated oscillator ladder.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run two-bath Otto cycles and write time-series and cycle-ledger CSVs"),
        ("pump", "run single-bath pump cycles and write time-series and cycle-ledger CSVs"),
        ("sweep", "sweep the frequency ratio and write efficiency/power per point"),
        ("verify", "run oracle-equivalence and invariant suites, print a pass/fail table"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        if name != "verify":  # verify checks fixed cases
            cmd.add_argument("--config", type=Path, default=None, help="config file (defaults apply if omitted)")
            cmd.add_argument("--out", type=Path, default=Path("out"), help="output directory")
            cmd.add_argument("--svg", action="store_true", help="also render SVG charts and .dat twins")
        if name in ("simulate", "pump"):
            cmd.add_argument("--wide", action="store_true", help="also write the full-distribution time series")
    return parser


def _load(args, mode):
    return parse_config("", mode) if args.config is None else load_config(args.config, mode)


@contextlib.contextmanager
def _writing_into(out):
    """Creates the --out directory; an OSError while creating it or writing
    into it ends the command as an OttoKilnError naming the path."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise OttoKilnError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from None


def _run_simulation(args, mode):
    config = _load(args, mode)
    trace = run_engine(config)
    out = args.out
    text = TraceText(trace, config.csv_levels)
    efficiencies = text.values["efficiency"]
    with _writing_into(out):
        write_timeseries_csv(out / "timeseries.csv", text)
        write_cycles_csv(out / "cycles.csv", text)
        if args.wide:
            write_wide_timeseries_csv(out / "timeseries_wide.csv", text)
        if args.svg and trace.records:
            cycles = text.values["cycle"]
            write_dat(out / "u_t.dat", text, ["t", "U"])
            write_svg_chart(out / "u_t.svg", trace.times, trace.energies,
                            "Internal energy over time", "t", "U")
            write_dat(out / "efficiency_n.dat", text, ["cycle", "efficiency"])
            if np.isfinite(efficiencies).sum() >= 2:
                write_svg_chart(out / "efficiency_n.svg", cycles, efficiencies,
                                "Per-cycle efficiency", "cycle", "efficiency")
            else:
                print("note: efficiency_n.svg not drawn: fewer than two cycles have a finite efficiency")

    if trace.records:
        last = trace.final_record
        eff = efficiencies[-1]
        print(f"{mode}: {len(trace.records)} cycles, final efficiency {eff:.6g}, "
              f"final power {cycle_power(last, trace.cycle_time):.6g}, "
              f"cycle-start TV shift {trace.a_shift_tv[-1]:.3g}")
        if last.w_eff <= 0.0:
            print(f"note: the final cycle is not in the engine regime (w_eff = {last.w_eff:.6g} <= 0)")
        if not trace.converged():
            print("note: run did not reach the cyclostationarity threshold (TV < 1e-6)")
    else:
        print(f"{mode}: 0 cycles requested; wrote empty series")
    print(f"wrote {out / 'timeseries.csv'} and {out / 'cycles.csv'}")
    return 0


def _run_sweep(args):
    config = _load(args, "sweep")
    if config.sweep_ratio_min is not None:  # EngineConfig pairs the bounds
        ratios = np.linspace(config.sweep_ratio_min, config.sweep_ratio_max,
                             config.sweep_ratio_steps)
    else:
        ratios = None
    sweep = sweep_efficiency_power(
        config.t_c, config.sweep_t_h, ratios, config.tau,
        omega_c=config.omega_c, engine_config=config if config.sweep_mode == "finite" else None,
        ratio_steps=config.sweep_ratio_steps,
    )
    out = args.out
    text = sweep_text(sweep)
    with _writing_into(out):
        write_sweep_csv(out / "sweep.csv", text)
        if args.svg:
            # rows are in (t_h, ratio) order, so each t_h is one contiguous block
            _, starts = np.unique(sweep.t_h, return_index=True)
            for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(sweep)]):
                rows = slice(lo, hi)
                t_h = text["t_h"][lo]  # %.12g: EngineConfig keeps the t_h distinct at that precision
                tag = t_h.replace(".", "p")
                write_dat(out / f"eta_power_th{tag}.dat", text, ["power", "efficiency"], rows)
                write_svg_chart(out / f"eta_power_th{tag}.svg", sweep.power[rows], sweep.efficiency[rows],
                                f"Efficiency vs power (t_h = {t_h})", "power", "efficiency")
    flagged = int(np.count_nonzero(~sweep.converged))
    print(f"sweep: {len(sweep)} points ({config.sweep_mode} mode)"
          + (f", {flagged} flagged non-converged" if flagged else ""))
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def _run_verify(_args):
    results = run_all_checks()
    width = max(len(r.name) for r in results)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        print(f"{status}  {result.name:<{width}}  {result.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_simulation(args, "otto")
        if args.command == "pump":
            return _run_simulation(args, "pump")
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_verify(args)
    except OttoKilnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
