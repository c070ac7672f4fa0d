"""Command-line interface: minreal, rho, gain, taumin, finiteness, gallery.

All reports are UTF-8 JSON (sorted keys) or CSV; a fixed --seed makes runs
byte-identical.  Exit codes: 0 success, 1 error (usage errors included), 2
mathematically undetermined outcome (a rho bracket straddling 1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys


from . import gallery, l2gain, spectral
from .core import (SignalClassSpec, _check_positive_finite, parse_signal, parse_system,
                   serialize_system)
from .realization import check_uniform_observability, minimal_realization

__all__ = ["main", "build_parser"]


def build_parser():
    p = argparse.ArgumentParser(prog="switchgain",
                                description="switched linear system analysis")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, system=True):
        if system:
            sp.add_argument("--system", required=True, help="system JSON path")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("minreal", help="minimal realization + observability report")
    common(sp)
    sp.add_argument("--class", dest="cls", default="dwell", choices=["arb", "dwell"])
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--T", type=float, default=1.0, help="observability window")
    sp.add_argument("--samples", type=int, default=12)

    sp = sub.add_parser("rho", help="spectral radius estimate at tau or over a tau grid")
    common(sp)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--tau-grid", default=None, help="comma-separated tau values (CSV output)")
    sp.add_argument("--max-letters", type=int, default=4)
    sp.add_argument("--grid-step", type=float, default=None, help="certification grid step delta")
    sp.add_argument("--horizon", type=float, default=None, help="certification duration cap")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--with-upper", action="store_true",
                    help="certify upper bounds along a tau grid (slower)")

    sp = sub.add_parser("gain", help="L2-gain of a signal or gain search over a class")
    common(sp)
    sp.add_argument("--signal", default=None, help="signal JSON path (single-signal gain)")
    sp.add_argument("--class", dest="cls", default="arb", choices=["arb", "dwell"])
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--tau-grid", default=None,
                    help="comma-separated tau sweep (CSV output: tau,T,gain_lower)")
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--max-switches", type=int, default=4)
    sp.add_argument("--grid-step", type=float, default=None,
                    help="base duration for the search grid")
    sp.add_argument("--witness", action="store_true",
                    help="attach a power-iteration witness ratio")

    sp = sub.add_parser("taumin", help="bracket the minimal dwell time")
    common(sp)
    sp.add_argument("--tau-lo", type=float, required=True)
    sp.add_argument("--tau-hi", type=float, required=True)
    sp.add_argument("--tol", type=float, default=0.05)
    sp.add_argument("--grid-step", type=float, default=None)
    sp.add_argument("--budget", type=int, default=None)

    sp = sub.add_parser("finiteness", help="gain-finiteness verdict (exit 2 if undetermined)")
    common(sp)
    sp.add_argument("--class", dest="cls", default="arb", choices=["arb", "dwell"])
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--grid-step", type=float, default=None)
    sp.add_argument("--budget", type=int, default=None)

    sp = sub.add_parser("gallery", help="worked example: alpha*, emission, dissipation check")
    common(sp, system=False)
    sp.add_argument("--alpha-star", action="store_true")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--emit-example", action="store_true")
    sp.add_argument("--emit-orbit", action="store_true",
                    help="worst-case planar orbit as CSV (theta,radius)")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--verify-lyapunov", action="store_true")
    sp.add_argument("--samples", type=int, default=10000)
    return p


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _json(doc):
    return json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n"


def _load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def _class_from_args(args):
    if args.cls == "dwell":
        _check_positive_finite("--tau", args.tau)
        return SignalClassSpec.dwell(args.tau)
    return SignalClassSpec.arbitrary()


def _upper_opts(args):
    """rho_upper options from the --grid-step, --horizon and --budget flags given."""
    opts = {}
    for flag, key in (("grid_step", "delta"), ("horizon", "cap"), ("budget", "budget")):
        value = getattr(args, flag, None)
        if value is not None:
            _check_positive_finite(f"--{flag.replace('_', '-')}", value)
            opts[key] = value
    return opts


def _run_minreal(args):
    sysm = _load_system(args.system)
    mr = minimal_realization(sysm)
    cls = _class_from_args(args)
    target = mr.sys_min if mr.sys_min is not None else sysm
    obs = check_uniform_observability(target, cls, args.T,
                                      samples=args.samples, seed=args.seed)
    doc = {
        "n": sysm.n,
        "r": mr.maps.controllable_dim,
        "n_min": mr.dim,
        "per_mode_observable": list(obs.per_mode_observable),
        "gamma_floor": obs.gramian_floor,
        "verdict": obs.verdict,
    }
    _emit(_json(doc), args.out)
    return 0


def _run_rho(args):
    sysm = _load_system(args.system)
    search = {"max_letters": args.max_letters}
    if args.tau_grid:
        taus = [float(v) for v in args.tau_grid.split(",")]
        curve = spectral.rho_curve(sysm, taus, with_upper=args.with_upper,
                                   search_opts=search, upper_opts=_upper_opts(args))
        lines = ["tau,lower_raw,lower_envelope,upper"]
        for t, raw, env, est in zip(curve.taus, curve.lower_raw,
                                    curve.lower_envelope, curve.estimates):
            up = repr(est.upper) if math.isfinite(est.upper) else ""
            lines.append(f"{t!r},{raw!r},{env!r},{up}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.tau is None:
        raise ValueError("rho requires --tau or --tau-grid")
    cls = SignalClassSpec.from_tau(args.tau)
    est = spectral.rho_estimate(sysm, cls, search_opts=search, upper_opts=_upper_opts(args))
    _emit(_json(est.to_dict()), args.out)
    return 0


def _run_gain(args):
    sysm = _load_system(args.system)
    if args.signal:
        with open(args.signal, "r", encoding="utf-8") as fh:
            sig = parse_signal(fh.read())
        est = l2gain.gain_for_signal(sysm, sig, args.T, args.tol,
                                     compute_witness=args.witness)
        doc = est.to_dict()
        doc["tau"] = None
        _emit(_json(doc), args.out)
        return 0
    kwargs = {"max_switches": args.max_switches, "tol": args.tol}
    if args.grid_step is not None:
        _check_positive_finite("--grid-step", args.grid_step)
        if args.grid_step >= args.T:
            # no switch time would fit in the horizon: only constant signals
            raise ValueError(f"--grid-step {args.grid_step!r} must be below --T {args.T!r}")
        kwargs["duration_grid"] = tuple(args.grid_step * k for k in (1, 2, 3, 4, 6, 8)
                                        if args.grid_step * k < args.T)
    if args.tau_grid:
        lines = ["tau,T,gain_lower"]
        for tau in (float(v) for v in args.tau_grid.split(",")):
            est = l2gain.gain_search(sysm, SignalClassSpec.from_tau(tau), args.T, **kwargs)
            lines.append(f"{tau!r},{args.T!r},{est.value!r}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    cls = _class_from_args(args)
    est = l2gain.gain_search(sysm, cls, args.T, **kwargs)
    doc = est.to_dict()
    doc["tau"] = args.tau if args.cls == "dwell" else 0.0
    _emit(_json(doc), args.out)
    return 0


def _run_taumin(args):
    sysm = _load_system(args.system)
    res = l2gain.tau_min(sysm, (args.tau_lo, args.tau_hi), args.tol,
                         upper_opts=_upper_opts(args))
    doc = {
        "tau_reject": res.tau_reject,
        "tau_accept": res.tau_accept,
        "width": res.width,
        "flags": list(res.flags),
    }
    _emit(_json(doc), args.out)
    return 2 if "undecided_zone" in res.flags else 0


def _run_finiteness(args):
    sysm = _load_system(args.system)
    cls = _class_from_args(args)
    verdict = l2gain.finiteness_test(sysm, cls, upper_opts=_upper_opts(args),
                                     seed=args.seed)
    doc = {
        "verdict": verdict.verdict,
        "rationale": verdict.rationale,
        "rho": verdict.rho_min_realization.to_dict(),
        "minimal_dim": verdict.minimal_dim,
        "uniform_observability": verdict.uniform_obs.verdict if verdict.uniform_obs else None,
    }
    _emit(_json(doc), args.out)
    return 2 if verdict.verdict == "undetermined" else 0


def _run_gallery(args):
    if args.alpha_star:
        value = gallery.alpha_star(args.tol)
        _emit(_json({"alpha_star": value, "tol": args.tol}), args.out)
        return 0
    if args.emit_example:
        if args.alpha is None:
            raise ValueError("--emit-example requires --alpha")
        _emit(serialize_system(gallery.example_system(args.alpha)) + "\n", args.out)
        return 0
    if args.emit_orbit:
        alpha = args.alpha if args.alpha is not None else gallery.alpha_star(args.tol)
        norm = gallery.planar_norm(alpha)
        lines = ["theta,radius"]
        for th, r in zip(norm.thetas, norm.radii):
            lines.append(f"{float(th)!r},{float(r)!r}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.verify_lyapunov:
        alpha = args.alpha if args.alpha is not None else gallery.alpha_star(args.tol)
        rep = gallery.verify_lyapunov_decay(alpha, args.samples, seed=args.seed)
        doc = {
            "alpha": alpha,
            "max_violation": rep.max_violation,
            "n_samples": rep.n_samples,
            "grad_norm_max": rep.grad_norm_max,
            "annulus_ok": rep.annulus_ok,
            "orbit_closure_error": rep.orbit_closure_error,
        }
        _emit(_json(doc), args.out)
        return 0
    raise ValueError("gallery requires one of --alpha-star, --emit-example, --emit-orbit, "
                     "--verify-lyapunov")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            # argparse exits 2 on a usage error, and 2 here means undetermined
            return 1
        raise
    handlers = {
        "minreal": _run_minreal,
        "rho": _run_rho,
        "gain": _run_gain,
        "taumin": _run_taumin,
        "finiteness": _run_finiteness,
        "gallery": _run_gallery,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
