"""Command-line interface: trajectory simulation, characteristic times,
and verification suites.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 numerical tolerance failure.  CSV output carries the full parameter
set as ``# key=value`` header comments and uses 9 significant digits,
so repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .checks import SUITES, run_suites
from .core import (PhysicalScales, _nonnegative, high_temp_occupation,
                   occupation_from_temperature)
from .ladder import evolve_populations
from .laws import CoolingParams, LawKind, evaluate_law, half_thermalization_time, time_to_value
from .lindblad import (IntegrationError, IntegratorConfig, RateLaw, RateModel, _populations,
                       _thermal_dim, default_dim, integrate)

ANALYTIC_LAWS = tuple(kind.value for kind in LawKind)
INTEGRATOR_LAWS = ("lindblad", "ladder")

HALF_TIME_FORMULAS = {
    "newton": "ln(2)/gamma",
    "markov": "ln(2)/gamma",
    "modified": "(sqrt(1+2*ln(2))-1)/gamma",
}


def _fmt(value) -> str:
    return format(value, ".9g") if isinstance(value, float) else str(value)


def _write_output(lines, path):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcool",
        description="Cooling-law and damped-oscillator simulation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a relaxation trajectory as CSV")
    sim.add_argument("--law", required=True, choices=ANALYTIC_LAWS + INTEGRATOR_LAWS)
    sim.add_argument("--model", choices=[m.value for m in RateLaw],
                     help="rate law for the integrators (default scaled)")
    sim.add_argument("--gamma", type=float, required=True)
    sim.add_argument("--t0", type=float, help="initial temperature")
    sim.add_argument("--tr", type=float, help="reservoir temperature")
    sim.add_argument("--theta0", type=float,
                     help="oscillator quantum in temperature units")
    sim.add_argument("--n0", type=float, help="initial mean occupation")
    sim.add_argument("--nr", type=float, help="reservoir mean occupation")
    sim.add_argument("--map", dest="map_kind", choices=("exact", "linear"),
                     help="temperature-to-occupation map for the integrators")
    sim.add_argument("--dt", type=float, default=0.01,
                     help="output/integration step (default 0.01)")
    sim.add_argument("--t-end", type=float, default=3.0)
    sim.add_argument("--dim", type=int,
                     help="Fock truncation (default: tail-budget rule)")
    sim.add_argument("--record-every", type=int, default=1)
    sim.add_argument("--out", help="output path (default: stdout)")

    half = sub.add_parser("halftime", help="half-thermalization time of a law")
    half.add_argument("--law", required=True, choices=ANALYTIC_LAWS)
    half.add_argument("--gamma", type=float, required=True)

    cool = sub.add_parser("cooltime", help="time to reach a target value")
    cool.add_argument("--law", choices=("newton", "modified"), default="newton")
    cool.add_argument("--t0", type=float, required=True)
    cool.add_argument("--tr", type=float, required=True)
    cool.add_argument("--target", type=float, required=True)
    cool.add_argument("--gamma", type=float, required=True)
    cool.add_argument("--compare", action="store_true",
                      help="report both laws and their ratio")

    ver = sub.add_parser("verify", help="run a built-in verification suite")
    ver.add_argument("--suite", required=True,
                     choices=tuple(SUITES) + ("all",))
    return parser


def _occupation_inputs(args) -> tuple[float, float]:
    """Resolve (n0, n_res) from occupation- or temperature-mode flags."""
    if args.n0 is not None:
        _nonnegative("--n0", args.n0)
        return args.n0, args.nr
    if args.map_kind is None or args.theta0 is None:
        raise ValueError(
            f"--law {args.law} needs occupations: give --n0/--nr, or "
            "--t0/--tr together with --theta0 and --map exact|linear")
    scales = PhysicalScales(theta0=args.theta0)
    convert = (occupation_from_temperature if args.map_kind == "exact"
               else high_temp_occupation)
    return convert(args.t0, scales), convert(args.tr, scales)


def _cmd_simulate(args) -> int:
    temp_mode = args.t0 is not None or args.tr is not None
    occ_mode = args.n0 is not None or args.nr is not None
    if temp_mode == occ_mode:
        raise ValueError("give exactly one of --t0/--tr or --n0/--nr")
    if temp_mode and (args.t0 is None or args.tr is None):
        raise ValueError("--t0 and --tr must be given together")
    if occ_mode and (args.n0 is None or args.nr is None):
        raise ValueError("--n0 and --nr must be given together")
    # a flag the run does not read would pass a value with no effect; only the
    # integrators read any, and --theta0 and --map only to convert temperatures
    integrator = args.law in INTEGRATOR_LAWS
    for flag, value, read in (("--theta0", args.theta0, temp_mode),
                              ("--map", args.map_kind, temp_mode),
                              ("--dim", args.dim, True), ("--model", args.model, True)):
        if value is not None and not (integrator and read):
            raise ValueError(f"--law {args.law} does not read {flag}"
                             + (" with --n0/--nr" if integrator else ""))

    header = {"command": "simulate", "law": args.law, "gamma": args.gamma,
              "dt": args.dt, "t_end": args.t_end}
    for key in ("t0", "tr", "theta0", "n0", "nr"):
        val = getattr(args, key)
        if val is not None:
            header[key] = val
    if args.map_kind is not None:
        header["map"] = args.map_kind

    cfg = IntegratorConfig(dt=args.dt, t_end=args.t_end,
                           record_every=args.record_every)
    if args.law in ANALYTIC_LAWS:
        x0, x_res = (args.t0, args.tr) if temp_mode else (args.n0, args.nr)
        params = CoolingParams(x0=x0, x_res=x_res, gamma=args.gamma)
        ts = cfg.recorded_steps * args.dt
        values = evaluate_law(LawKind(args.law), params, ts)
        columns, template = "t,value,valid", "%.9g,%.9g,%d"
        data = ts, values, ts < 1.0 / args.gamma
    else:
        n0, n_res = _occupation_inputs(args)
        law = RateLaw(args.model or "scaled")
        model = RateModel(law=law, gamma=args.gamma, n_res=n_res)
        fock = abs(n0 - round(n0)) < 1e-9
        dim = args.dim
        if dim is None:
            # every run relaxes to the thermal state at n_res, and a thermal
            # start has its own geometric tail: both outweigh the Poisson rule
            dim = max(default_dim(max(n0, n_res)), _thermal_dim(n_res, 1e-8))
            if not fock:
                dim = max(dim, _thermal_dim(n0, 1e-9))
        header.update(model=law.value, dim=dim)
        # the ladder reads the start's populations alone, with no dense state
        p0 = _populations(int(round(n0)) if fock else n0, dim, fock)
        if args.law == "lindblad":
            traj = integrate(np.diag(p0.astype(complex)), model, cfg)
        else:
            traj = evolve_populations(p0, model, cfg)
        columns = "t,n_bar,trace,purity,valid,neg_rate_flag"
        template = "%.9g,%.9g,%.9g,%.9g,%d,%d"
        data = (traj.times, traj.n_bar, traj.trace, traj.purity,
                traj.times < 1.0 / args.gamma, traj.negative_rate)
    header["record_every"] = args.record_every
    # "%.9g" % v is format(v, ".9g") for every float; "%d" writes a flag as 1 or 0
    rows = [template % row for row in zip(*(col.tolist() for col in data))]
    lines = [f"# {k}={_fmt(v)}" for k, v in header.items()] + [columns] + rows
    _write_output(lines, args.out)
    return 0


def _cmd_halftime(args) -> int:
    value = half_thermalization_time(LawKind(args.law), args.gamma)
    print(f"{args.law}: t_half = {HALF_TIME_FORMULAS[args.law]} = {_fmt(value)}")
    return 0


def _cmd_cooltime(args) -> int:
    params = CoolingParams(x0=args.t0, x_res=args.tr, gamma=args.gamma)
    laws = ("newton", "modified") if args.compare else (args.law,)
    times = [time_to_value(LawKind(law), params, args.target) for law in laws]
    for law, t in zip(laws, times):
        print(f"{law}: t = {_fmt(t)}")
    if args.compare:
        print(f"ratio modified/newton = {_fmt(times[1] / times[0])}")
    return 0


def _cmd_verify(args) -> int:
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    results = run_suites(names)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "halftime": _cmd_halftime,
                "cooltime": _cmd_cooltime, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
