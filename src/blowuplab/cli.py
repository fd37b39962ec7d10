"""Command-line interface: experiments, outputs, and self-verification.

Subcommands: moments, map, iterate, sweep, fourier2d, project-grid, verify.
Every file-writing run also writes a JSON manifest of the full effective
configuration and of the environment (kernel backend, library versions);
re-running from a manifest reproduces outputs byte for byte in the same
environment, and `iterate --manifest` warns on stderr when it is not.
Exit codes: 0 success, 1 criterion failure, 2 usage/validation.
"""

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import (
    __version__,
    _kernels,
    acceptance,
    correction,
    gridproj,
    moments,
    renorm,
)
from .errors import EvaluationError
from .quadratic import DeltaState


def _parse_delta(text, n):
    if text.strip() == "":
        return np.zeros(n - 2)
    parts = [float(x) for x in text.split(",")]
    if len(parts) != n - 2:
        raise ValueError(f"delta must have {n - 2} entries for n={n}, got {len(parts)}")
    return np.array(parts)


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:count, got {text!r}")
    values = []
    for name, kind, part in zip(("lo", "hi", "count"), (float, float, int), parts):
        try:
            values.append(kind(part))
        except ValueError:
            raise ValueError(
                f"range must be lo:hi:count, got {text!r}: {name} {part!r} is not "
                f"{'an integer' if kind is int else 'a number'}"
            ) from None
    lo, hi, count = values
    if count < 1:
        raise ValueError("range count must be >= 1")
    with np.errstate(invalid="ignore"):  # an infinite bound gives NaN, which the run refuses
        return np.linspace(lo, hi, count)


def _np_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _json_dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=_np_default)


def _environment():
    """What byte-identical replay depends on besides the configuration."""
    return {
        "backend": _kernels.backend_name(),
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _warn_environment(manifest, path):
    """One stderr warning when the manifest's environment is not this one."""
    here = _environment()
    stamp = manifest.get("environment")
    if stamp is not None and "package" not in stamp:
        # stamps written before 0.2.0 leave the version to the top level
        stamp = {**stamp, "package": manifest.get("package_version")}
    if stamp is None:
        detail = f"has no environment stamp ({', '.join(sorted(here))})"
    else:
        diff = [
            f"{key} {stamp.get(key)!r} != {here[key]!r}"
            for key in sorted(here)
            if stamp.get(key) != here[key]
        ]
        if not diff:
            return
        detail = "was written in another environment: " + ", ".join(diff)
    sys.stderr.write(
        f"warning: manifest {path} {detail}; the replay may not be byte-identical\n"
    )


def _emit(args, text, config, path=None):
    """Write a command's result `text`: to stdout without -o, and with -o to
    `path` (by default -o itself) and its manifest `<prefix>.manifest.json`.

    The prefix is -o without its suffix when -o is the file written, and -o
    otherwise; the manifest records `args.command`, the run's `config`, the
    environment and the file written.
    """
    if not args.output:
        sys.stdout.write(text)
        return
    path = path or args.output
    Path(path).write_text(text, encoding="utf-8")
    manifest = {
        "command": args.command,
        "config": config,
        "environment": _environment(),
        "outputs": [path],
        "package_version": __version__,
    }
    prefix = Path(path).with_suffix("") if path == args.output else args.output
    Path(f"{prefix}.manifest.json").write_text(_json_dump(manifest) + "\n", encoding="utf-8")


def _cmd_moments(args, parser):
    if args.n < 2:
        parser.error("n must be >= 2")
    deltas = [_parse_delta(text, args.n) for text in args.delta or [""]]
    sets = [moments.compute_moments(d, args.n) for d in deltas]
    csv_text = moments.momentsets_to_csv(sets)

    mc_report = []
    if args.mc_check:
        for m in sets:
            b_est, bi_est = moments.mc_moment_check(
                m.delta, args.n, args.mc_check, args.seed
            )
            mc_report.append(
                {
                    "delta": list(m.delta),
                    "max_abs_z": moments.mc_max_abs_z(m, b_est, bi_est),
                    "B_mc": b_est.value,
                    "B_mc_se": b_est.std_error,
                }
            )

    config = {
        "n": args.n,
        "delta": [list(d) for d in deltas],
        "mc_check": args.mc_check,
        "seed": args.seed,
    }
    _emit(args, csv_text, config)
    if mc_report:
        sys.stdout.write(_json_dump({"mc_check": mc_report}) + "\n")
        if any(r["max_abs_z"] > 3.0 for r in mc_report):
            return 1
    return 0


_MAP_DEFAULTS = {f.name: f.default for f in dataclasses.fields(renorm.MapConfig)}


def _map_config(args):
    """MapConfig from the map flags; a field with no flag keeps its default."""
    return renorm.MapConfig(
        **{name: getattr(args, name) for name in _MAP_DEFAULTS if hasattr(args, name)}
    )


def _cmd_map(args, parser):
    cfg = _map_config(args)
    state = DeltaState(n=args.n, tau=args.tau, delta=_parse_delta(args.delta, args.n))
    new_state, m, z_half, xi = renorm._step_detail(state, cfg)
    report = renorm.check_monotonicity(state, new_state, cfg, moments_at_state=m)
    out = {
        "before": {"tau": state.tau, "delta": list(state.delta)},
        "after": {"tau": new_state.tau, "delta": list(new_state.delta)},
        "escaped": not cfg.in_ball(new_state.delta),
        "correction_projection_diag": list(z_half),
        "noise_diag": list(xi),
        "monotonicity": {
            "sum_ci": report.sum_ci,
            "regime": report.regime,
            "threshold": report.threshold,
            "exceeds_threshold": report.exceeds_threshold,
            "deltajclaim_holds": report.deltajclaim_holds,
            "negdelta_holds": report.negdelta_holds,
        },
    }
    sys.stdout.write(_json_dump(out) + "\n")
    return 0


def _replay_args(args, parser, argv):
    """The namespace of the `iterate` flags the manifest records, with this run's --output.

    `config.map` keys are their flags (`C_gamma` is --c-gamma; a null is
    left out), and --tau0, --delta0 and --steps follow, parsed by
    `build_parser()` like a command line.  `argv` is the command line: a
    flag in it besides --manifest and -o, a manifest that is not JSON, that
    another command wrote, that lacks a key, has a key `MapConfig` has not
    or a value its flag refuses is a usage error: exit 2, one line naming
    the manifest.
    """
    path = args.manifest

    def refuse(problem):
        parser.exit(2, f"{parser.prog}: error: manifest {path} {problem}\n")

    given = argparse.ArgumentParser(add_help=False)
    given.add_argument("--manifest")
    given.add_argument("--output", "-o")
    extra = given.parse_known_args(argv[argv.index("iterate") + 1 :])[1]
    if extra:
        refuse(f"records every flag of the run, so {extra[0].partition('=')[0]} "
               "cannot be given with it (only -o can)")
    try:
        manifest = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        refuse(f"is not JSON: {exc}")
    if not isinstance(manifest, dict):
        refuse("is not a JSON object")
    if manifest.get("command", "iterate") != "iterate":
        refuse(f"was written by {manifest['command']!r}, not 'iterate'")
    config = manifest.get("config")
    if not isinstance(config, dict):
        refuse("has no 'config'")
    missing = [k for k in ("map", "tau0", "delta0", "steps") if k not in config]
    if missing:
        refuse(f"has no {', '.join(map(repr, missing))} in its 'config'")
    if not isinstance(config["map"], dict):
        refuse("has a 'map' that is not a JSON object")
    values = dict(config["map"])
    order = values.pop("order", None)
    unknown = [k for k in values if k not in _MAP_DEFAULTS]
    if unknown:
        refuse(f"has {', '.join(map(repr, unknown))} in its 'map', not a MapConfig field")
    delta0 = config["delta0"]
    values.update(tau0=config["tau0"], steps=config["steps"],
                  delta0=",".join(map(str, delta0)) if isinstance(delta0, list) else delta0)
    # a float's str is its repr, which float() reads back exactly
    flags = [f"--{k.lower().replace('_', '-')}={v}" for k, v in values.items() if v is not None]
    try:  # argparse writes its error to stderr and exits; keep the message
        with contextlib.redirect_stderr(io.StringIO()) as err:
            replay = build_parser().parse_args(["iterate", *flags])
    except SystemExit:
        refuse("records " + err.getvalue().rstrip("\n").rpartition(": error: ")[2])
    _warn_environment(manifest, path)
    if order is not None:  # written before 0.10.0, when moments still took a node count
        sys.stderr.write(f"warning: manifest {path} sets 'order', which no longer "
                         "selects anything; it is ignored\n")
    replay.output = args.output
    return replay


def _cmd_iterate(args, parser, argv):
    if args.manifest:
        args = _replay_args(args, parser, argv)
    cfg = _map_config(args)
    delta0 = _parse_delta(args.delta0, args.n)
    if args.tau0 <= 1.0:
        parser.error("tau0 must be > 1")
    rec = renorm.iterate(DeltaState(n=cfg.n, tau=args.tau0, delta=delta0), cfg, args.steps)
    config = {
        "map": cfg.to_dict(),
        "tau0": args.tau0,
        "delta0": list(delta0),
        "steps": args.steps,
        "output_prefix": str(args.output),
    }
    _emit(args, rec.to_csv(), config, f"{args.output}.csv")
    sys.stdout.write(_json_dump(rec.manifest()) + "\n")
    return 0


def _cmd_sweep(args, parser):
    cfg = _map_config(args)
    tau0s = _parse_range(args.tau0_range)
    mags = _parse_range(args.delta0_range)
    if tau0s.min() <= 1.0:
        parser.error(
            f"tau0 must be > 1; --tau0-range {args.tau0_range} reaches {tau0s.min():g}"
        )
    if args.n == 2 and len(mags) != 1:
        parser.error(
            f"--delta0-range count must be 1 at n=2, where delta has no entries; got {len(mags)}"
        )
    deltas = []
    for s in mags:
        d = np.zeros(args.n - 2)
        if args.n > 2:
            d[0] = s
        deltas.append(d)
    rows = renorm.sweep(tau0s, deltas, cfg, args.steps, workers=args.workers)
    config = {
        "map": cfg.to_dict(),
        "tau0_range": args.tau0_range,
        "delta0_range": args.delta0_range,
        "steps": args.steps,
        "workers": args.workers,
    }
    _emit(args, renorm.sweep_to_csv(rows, args.n), config, f"{args.output}.csv")
    return 0


def _cmd_fourier2d(args, parser):
    if args.max_degree < 2:
        parser.error("max-degree must be >= 2")
    if args.points < 1:
        parser.error("points must be >= 1")
    dec, err, proj = correction.oracle_check(args.frame, args.max_degree, args.points, args.seed)
    if args.frame == "rotated":
        expected = ("x1*x2", 2.0 * correction.LN2_OVER_2PI)
    else:
        expected = ("x1^2-x2^2", correction.LN2_OVER_2PI)
    out = {
        "frame": args.frame,
        "max_degree": args.max_degree,
        "tail_bound": dec.tail_bound,
        "q_matrix": dec.q.coeff.ravel().tolist(),
        "reconstruction_max_err": err,
        "projection_half_matrix": proj.coeff.ravel().tolist(),
        "expected_projection": {"form": expected[0], "coefficient": expected[1]},
        "phi_terms": len(dec.phi_terms),
    }
    sys.stdout.write(_json_dump(out) + "\n")
    return 0


def _cmd_project_grid(args, parser):
    if args.input:
        field = gridproj.SampledField.load(args.input)
    else:
        if args.synthetic is None:
            parser.error("give a field: --input FILE or --synthetic NAME")
        radius = args.radius
        if radius is None:  # --r's, so a refused --r is named as itself
            radius = gridproj.positive("r", args.r) + 5 * args.h
        synthetic = correction.synthetic_solution(args.synthetic, args.tau0)
        field = gridproj.SampledField.from_function(synthetic, 2, args.h, radius)
    results = {}
    scales = [args.r, args.r / 2.0] if args.half_step else [args.r]
    for r in scales:
        res = gridproj.project(field, r)
        results[f"r={r:g}"] = {
            "tau": res.tau,
            "p_matrix": None if res.p is None else res.p.coeff.ravel().tolist(),
            "raw_matrix": res.raw.coeff.ravel().tolist(),
            "fd_error": res.fd_error,
            "points_used": res.points_used,
        }
    config = {
        "input": args.input,
        "synthetic": args.synthetic,
        "tau0": args.tau0,
        "h": args.h,
        "radius": args.radius,
        "r": args.r,
        "half_step": args.half_step,
    }
    _emit(args, _json_dump(results) + "\n", config)
    return 0


def _cmd_verify(args, parser):
    results = acceptance.run_all(name_filter=args.filter)
    if not results:
        parser.error(f"no criteria match filter {args.filter!r}")
    failed = sum(not res.passed for res in results)
    if args.json:
        sys.stdout.write(_json_dump([dataclasses.asdict(res) for res in results]) + "\n")
    else:
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            sys.stdout.write(f"{status} {res.name}: {res.detail} [{res.seconds:.1f}s]\n")
        sys.stdout.write(f"{len(results) - failed}/{len(results)} criteria passed\n")
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blowuplab",
        description="Numerical lab for half-scale renormalization dynamics of "
        "free-boundary singularities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map_args(p, with_tol=False):
        default = _MAP_DEFAULTS
        p.add_argument("--gamma", type=float, default=default["gamma"])
        p.add_argument("--alpha", type=float, default=default["alpha"])
        p.add_argument("--noise", choices=renorm.NOISE_MODES, default=default["noise"])
        p.add_argument("--c-noise", type=float, default=default["c_noise"])
        p.add_argument("--seed", type=int, default=default["seed"])
        p.add_argument(
            "--c-gamma", dest="C_gamma", type=float, default=default["C_gamma"]
        )
        p.add_argument("--kappa0", type=float, default=default["kappa0"])
        if with_tol:
            p.add_argument("--tol-conv", type=float, default=default["tol_conv"])

    p = sub.add_parser("moments", help="moment sets for one or more delta")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", action="append", default=None)
    p.add_argument("--mc-check", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("map", help="a single half-scale step")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--delta", default="")
    add_map_args(p)

    p = sub.add_parser("iterate", help="iterate the half-scale map")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tau0", type=float, default=10.0)
    p.add_argument("--delta0", default="")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--manifest", default=None, help="re-run from a manifest file")
    add_map_args(p, with_tol=True)

    p = sub.add_parser("sweep", help="classify a grid of initial conditions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau0-range", required=True, help="lo:hi:count")
    p.add_argument("--delta0-range", required=True, help="lo:hi:count along e1")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    add_map_args(p)

    p = sub.add_parser("fourier2d", help="n=2 oracle: series vs closed form")
    p.add_argument("--max-degree", type=int, default=40)
    p.add_argument("--frame", choices=("rotated", "axis"), default="rotated")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("project-grid", help="project a sampled field")
    p.add_argument("--input", default=None, help="field file (.json/.bin pair or .csv)")
    p.add_argument(
        "--synthetic", choices=("ztilde", "p0-plus-ztilde"), default=None
    )
    p.add_argument("--tau0", type=float, default=10.0)
    p.add_argument("--h", type=float, default=1 / 128)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--half-step", action="store_true")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("verify", help="run the acceptance criteria suite")
    p.add_argument("--filter", default=None)
    p.add_argument(
        "--json", action="store_true",
        help="print one JSON list of {name, passed, detail, seconds}",
    )

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "moments": _cmd_moments,
        "map": _cmd_map,
        "iterate": functools.partial(_cmd_iterate, argv=argv),
        "sweep": _cmd_sweep,
        "fourier2d": _cmd_fourier2d,
        "project-grid": _cmd_project_grid,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, parser)
    except (ValueError, EvaluationError) as exc:
        parser.error(str(exc))
    except OSError as exc:
        # a missing or unreadable input file is a usage error, not a traceback
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
