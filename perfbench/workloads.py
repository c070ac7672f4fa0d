"""Seeded inputs, queries and answer checks for the benchmark workloads.

gain_search  gain_search over arbitrary and dwell classes; the Riccati
             escape-time bisection in l2gain (scipy solve_ivp) is the hot path.
verdict      finiteness_test, rho_estimate, rho_curve and tau_min; the
             polytope certifier in spectral (numpy eigvalsh) is the hot path.
long_signal  flows and l2gain on one system driven by signals with hundreds of
             segments: simulate, transition, gramians, gain_power_lower,
             gain_for_signal and validate_membership.

Template inputs (planted instances, rotated-node pairs, the example family and
the README CLI files) are rotated by a seeded orthogonal change of state
basis.  Gains, spectral-radius bounds, verdicts and minimal dimensions do not
depend on the basis, so each rotated query must reproduce the answer recorded
for its unrotated template in reference.json; every matrix entry the library
sees still changes with the seed.  Inputs drawn freely from the seed
(common-Lyapunov modes, planted systems, long signals) are checked by
invariants instead.  The library receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from spans import UNCERTIFIED
from switchgain import cli, core, flows, gallery, l2gain, realization, spectral

WORKLOADS = ("gain_search", "verdict", "long_signal")
NODE_TEMPLATES = ((-1.0, -4.0, 1.5), (-0.5, -3.0, 2.0), (-1.0, -6.0, 3.0))

# Every query runs at the settings a caller gets: the library's and the CLI's
# defaults, or the search shape of the gain-monotonicity acceptance test
# (criterion 6), which fixes a coarse grid and a tighter tolerance.
CRITERION6 = {"max_switches": 2, "duration_grid": (0.4, 0.8, 1.2, 1.6), "refine": False,
              "eval_budget": 30, "tol": 1e-5}


def default(fn, name):
    """Default value of a keyword parameter of a library function."""
    return inspect.signature(fn).parameters[name].default


@dataclass
class Query:
    """One library call, the facts recorded from its answer, and their check.

    summarize(answer) returns the JSON-able facts that are compared with the
    reference (when the query has one); invariant(answer, answers) returns a
    failure text or None, where `answers` maps the keys of the queries already
    run in this pass to their answers.
    """

    key: str
    run: Callable[[], object]
    summarize: Callable[[object], dict] = lambda answer: {}
    tols: dict = field(default_factory=dict)       # summary field -> tolerance, or f(reference)
    invariant: Callable[[object, dict], str | None] = lambda answer, answers: None
    referenced: bool = True
    decision: bool = False
    undetermined: Callable[[object], bool] = lambda answer: False
    inputs: tuple = ()                             # what the library is given, for fingerprint()


def check(query, answer, answers, reference):
    """Failure text for an answer, or None when it passes every check."""
    text = query.invariant(answer, answers)
    if text:
        return text
    if not query.referenced:
        return None
    want = reference.get(query.key)
    if want is None:
        return "no reference answer recorded"
    got = query.summarize(answer)
    for name, ref in want.items():
        value = got.get(name)
        if isinstance(ref, float) or isinstance(value, float):
            tol = query.tols.get(name, 1e-9 * max(1.0, abs(ref)))
            tol = tol(ref) if callable(tol) else tol
            if value is None or not abs(value - ref) <= tol:
                return f"{name}={value!r}, reference {ref!r} (tolerance {tol:g})"
        elif isinstance(ref, list) and ref and isinstance(ref[0], float):
            tol = query.tols.get(name, 1e-9)
            if value is None or len(value) != len(ref) or any(
                    not abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(value, ref)):
                return f"{name}={value!r}, reference {ref!r} (relative tolerance {tol:g})"
        elif value != ref:
            return f"{name}={value!r}, reference {ref!r}"
    return None


# ---------------------------------------------------------------------------
# input generation


def _orthogonal(rng, n, rotate):
    if not rotate:
        return np.eye(n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotate_system(sysm, Q):
    """Same system in the state basis x' = Q x (Q orthogonal)."""
    modes = tuple(core.Mode(Q @ m.A @ Q.T, Q @ m.B, m.C @ Q.T) for m in sysm.modes)
    return core.SystemSpec(sysm.n, sysm.m, sysm.p, modes, label=sysm.label)


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli_query(key, argv, out, summarize, tols=None, decision=False,
               undetermined=lambda answer: False, invariant=None):
    """README-style CLI command; the answer is (exit code, parsed --out JSON, stderr)."""

    def run():
        if os.path.exists(out):
            os.remove(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", out])
        doc = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        return code, doc, err.getvalue()

    return Query(key, run, summarize, tols or {},
                 invariant or (lambda answer, answers: None),
                 decision=decision, undetermined=undetermined, inputs=tuple(argv))


def _bisection_tol(tol):
    """Allowed gap between two gains bisected to relative tolerance tol.

    Each value is the midpoint of a bracket of width < tol * max(hi, 1) around
    the same exact gain, so two of them differ by less than one such width.
    """
    return lambda ref: tol * max(ref * (1.0 + tol), 1.0)


def _gain_summary(est):
    return {"value": float(est.value)}


def _witness_in_class(cls):
    """Invariant: the search witness covers [0, T] and respects the dwell floor."""

    def invariant(est, answers):
        sig = est.witness_signal
        if sig is None or not abs(sig.horizon - est.horizon) <= 1e-9 * max(1.0, est.horizon):
            return "witness signal does not cover the horizon"
        if cls.kind == "dwell":
            short = [d for _, d in sig.merged().segments if d < cls.tau - 1e-12]
            if short:
                return f"witness dwell {min(short)!r} below tau {cls.tau!r}"
        if not (est.value >= 0 and math.isfinite(est.value)):
            return f"gain {est.value!r} not finite and nonnegative"
        return None

    return invariant


def _gain_search_query(key, sysm, cls, T, opts=None, *, minimal=False, match=None,
                       referenced=True):
    """gain_search with the given options (default: the library's defaults).

    minimal=True searches the minimal realization.  With match set, the answer
    must equal the gain of the query with that key within 1e-6 (the full
    system and its minimal realization have the same input-output map, and
    both searches take the same bisection decisions).
    """
    opts = dict(opts or {})
    tol = opts.get("tol", default(l2gain.gain_search, "tol"))
    if minimal:
        def run():
            return l2gain.gain_search(realization.minimal_realization(sysm).sys_min, cls, T, **opts)
    else:
        def run():
            return l2gain.gain_search(sysm, cls, T, **opts)
    witness = _witness_in_class(cls)

    def invariant(est, answers):
        text = witness(est, answers)
        if text or match is None:
            return text
        other = answers.get(match)
        if other is None:
            return f"query {match} has no answer"
        if not abs(est.value - other.value) <= 1e-6:
            return f"minimal-realization gain {est.value!r} != full gain {other.value!r}"
        return None

    return Query(key, run, _gain_summary, {"value": _bisection_tol(tol)}, invariant,
                 referenced=referenced, inputs=(sysm, cls, T, opts))


def _certified(flags):
    return not any(f in flags for f in UNCERTIFIED)


def _rho_summary(est):
    return {"lower": float(est.lower), "upper": float(est.upper),
            "certified": _certified(est.flags)}


def _bracket_ok(lower, upper):
    if not (0.0 <= lower <= upper):
        return f"rho bracket [{lower!r}, {upper!r}] is not ordered"
    return None


def _taumin_ok(reject, accept, flags, tol, lo=0.6, hi=2.0):
    """A tau_min bracket is ordered; unflagged, it lies in [lo, hi] and is at most tol wide."""
    if not reject <= accept:
        return f"tau bracket [{reject}, {accept}] inverted"
    if flags:
        return None
    if not (lo - 1e-12 <= reject and accept <= hi + 1e-12):
        return f"tau bracket [{reject}, {accept}] outside [{lo}, {hi}]"
    if accept - reject > tol + 1e-12:
        return f"unflagged tau bracket width {accept - reject} exceeds tol {tol}"
    return None


def _gain_search_queries(rng, workdir, rotate, alpha):
    A, D = core.SignalClassSpec.arbitrary(), core.SignalClassSpec.dwell
    nodes = [rotate_system(gallery.rotated_nodes_pair(*p), _orthogonal(rng, 2, rotate))
             for p in NODE_TEMPLATES[:2]]
    # most searches cost 0.5 to 1 s, so the median query lies among many
    # samples of about the same latency; one criterion-6 search costs ~3 s
    queries = [
        _gain_search_query("nodes0_arb_T0.4", nodes[0], A, 0.4),
        *(_gain_search_query(f"nodes{k}_dwell0.25_T0.5", nodes[k], D(0.25), 0.5)
          for k in range(2)),  # nodes2 at these settings is the CLI query below
        # criterion-6 searches: few candidates, each bisected to 1e-5
        _gain_search_query("nodes0_c6_dwell0.5_T3", nodes[0], D(0.5), 3.0, CRITERION6),
        _gain_search_query("nodes1_c6_dwell1.1_T2", nodes[1], D(1.1), 2.0, CRITERION6),
    ]
    planted, _ = gallery.planted_reducible_system(2, 1, 1, 2, 1, 1, seed=3)
    sysm = rotate_system(planted, _orthogonal(rng, 4, rotate))
    queries.append(_gain_search_query("planted3_arb_T0.5", sysm, A, 0.5))
    queries.append(_gain_search_query("planted3_arb_T0.75", sysm, A, 0.75))
    queries.append(_gain_search_query("planted3_min_arb_T0.75", sysm, A, 0.75,
                                      minimal=True, match="planted3_arb_T0.75"))
    example = rotate_system(gallery.example_system(alpha), _orthogonal(rng, 3, rotate))
    queries.append(_gain_search_query("example_dwell0.5_T1", example, D(0.5), 1.0))
    queries.append(_gain_search_query("example_dwell0.5_T1.5", example, D(0.5), 1.5))

    readme_nodes = rotate_system(gallery.rotated_nodes_pair(), _orthogonal(rng, 2, rotate))
    path = _write(workdir, "nodes.json", core.serialize_system(readme_nodes))
    out = os.path.join(workdir, "gain.json")
    argv = ["gain", "--system", path, "--class", "dwell", "--tau", "0.25", "--T", "0.5"]
    tol = cli.build_parser().parse_args(argv).tol
    queries.append(_cli_query(
        "cli_gain_nodes", argv, out,
        lambda a: {"exit": a[0], "value": a[1]["value"] if a[1] else None},
        {"value": _bisection_tol(tol)}))
    return queries


def _verdict_queries(rng, workdir, rotate, alpha):
    D = core.SignalClassSpec.dwell
    queries = []

    def finiteness(key, sysm, cls):
        def summarize(v):
            return {"verdict": v.verdict, "minimal_dim": v.minimal_dim,
                    **_rho_summary(v.rho_min_realization)}

        return Query(key, lambda: l2gain.finiteness_test(sysm, cls), summarize,
                     {"lower": 1e-7, "upper": 1e-6},
                     lambda v, answers: _bracket_ok(v.rho_min_realization.lower,
                                                    v.rho_min_realization.upper),
                     decision=True, undetermined=lambda v: v.verdict == "undetermined",
                     inputs=(sysm, cls))

    def rho(key, sysm, cls, referenced=True, invariant=None):
        return Query(key, lambda: spectral.rho_estimate(sysm, cls), _rho_summary,
                     {"lower": 1e-7, "upper": 1e-6},
                     invariant or (lambda e, answers: _bracket_ok(e.lower, e.upper)),
                     referenced=referenced, decision=True,
                     undetermined=lambda e: not _certified(e.flags), inputs=(sysm, cls))

    # at the default certification budget these are finite (11, 13, 23),
    # infinite (10, 17) and undetermined with the budget exhausted (9)
    for lib_seed in (9, 10, 11, 13, 17, 23):
        planted, _ = gallery.planted_reducible_system(2, 1, 1, 2, 1, 1, seed=lib_seed)
        sysm = rotate_system(planted, _orthogonal(rng, 4, rotate))
        queries.append(finiteness(f"planted{lib_seed}_fin_dwell0.5", sysm, D(0.5)))
    nodes = [rotate_system(gallery.rotated_nodes_pair(*p), _orthogonal(rng, 2, rotate))
             for p in NODE_TEMPLATES]
    queries.append(finiteness("nodes0_fin_dwell1.4", nodes[0], D(1.4)))
    queries.append(rho("nodes1_rho_dwell1.0", nodes[1], D(1.0)))
    example = rotate_system(gallery.example_system(alpha + 0.05), _orthogonal(rng, 3, rotate))
    queries.append(rho("example_rho_dwell0.5", example, D(0.5)))

    taus = (0.6, 1.0, 1.4, 2.0)

    def curve_invariant(c, answers):
        if any(a < b - 1e-12 for a, b in zip(c.lower_raw, c.lower_raw[1:])):
            return f"raw lower bounds {c.lower_raw} increase with tau"
        for e in c.estimates:
            text = _bracket_ok(e.lower, e.upper)
            if text:
                return text
        return None

    queries.append(Query("nodes2_rho_curve",
                         lambda: spectral.rho_curve(nodes[2], taus, with_upper=True),
                         lambda c: {"lower_raw": [float(v) for v in c.lower_raw],
                                    "upper": [float(e.upper) for e in c.estimates]},
                         {"lower_raw": 1e-7, "upper": 1e-6}, curve_invariant,
                         inputs=(nodes[2], taus)))

    # tau_min declines ("bracket upper end undecidable at the available
    # budget") when the certifier cannot accept the upper end of the bracket:
    # that is an undecided tau_min, any other error fails the query.
    def declined(exc):
        return isinstance(exc, ValueError) and "undecidable" in str(exc)

    def taumin_run():
        try:
            return l2gain.tau_min(nodes[2], (0.6, 2.0))
        except ValueError as exc:
            if not declined(exc):
                raise
            return exc

    def taumin_invariant(r, answers):
        if declined(r):
            return None
        return _taumin_ok(r.tau_reject, r.tau_accept, r.flags, default(l2gain.tau_min, "tol"))

    queries.append(Query("nodes2_tau_min", taumin_run, invariant=taumin_invariant,
                         referenced=False, decision=True,
                         undetermined=lambda r: declined(r) or bool(r.flags),
                         inputs=(nodes[2], (0.6, 2.0))))

    # common-Lyapunov modes: |x(t)| = e^(beta t)|x0| under every law, so rho = e^beta exactly
    for k in range(2):
        beta = float(rng.uniform(-0.6, -0.15))
        freqs = tuple(float(w) for w in rng.uniform(0.5, 3.0, size=2))
        tau = float(rng.uniform(0.3, 1.0))
        sysm = gallery.common_lyapunov_modes(beta, freqs)

        def contains(e, answers, exact=math.exp(beta)):
            text = _bracket_ok(e.lower, e.upper)
            if text:
                return text
            if not (e.lower <= exact * (1 + 1e-9) and exact <= e.upper * (1 + 1e-9)):
                return f"rho bracket [{e.lower!r}, {e.upper!r}] misses e^beta = {exact!r}"
            return None

        queries.append(rho(f"cqlf{k}_rho", sysm, D(tau), referenced=False, invariant=contains))

    # README CLI commands on the rotated README inputs
    example_path = _write(workdir, "example.json", core.serialize_system(
        rotate_system(gallery.example_system(4.5047), _orthogonal(rng, 3, rotate))))
    nodes_path = _write(workdir, "nodes.json", core.serialize_system(
        rotate_system(gallery.rotated_nodes_pair(), _orthogonal(rng, 2, rotate))))

    def cli_rho_summary(a):
        code, doc = a[:2]
        if doc is None:
            return {"exit": code}
        return {"exit": code, "lower": doc["lower"], "upper": doc["upper"],
                "certified": _certified(doc["flags"])}

    # The README documents exit code 2 (undetermined) for this command; the
    # rigorous lower bound at alpha = 4.5047 exceeds 1, so the recorded answer is
    # 'infinite' with exit code 0, which is mathematically sound.
    def cli_finiteness_summary(a):
        code, doc = a[:2]
        if doc is None:
            return {"exit": code}
        return {**cli_rho_summary((code, doc["rho"])), "verdict": doc["verdict"]}

    queries.append(_cli_query(
        "cli_finiteness_example_arb", ["finiteness", "--system", example_path, "--class", "arb"],
        os.path.join(workdir, "fin.json"), cli_finiteness_summary,
        {"lower": 1e-7, "upper": 1e-6}, decision=True, undetermined=lambda a: a[0] == 2))
    queries.append(_cli_query(
        "cli_rho_example", ["rho", "--system", example_path, "--tau", "0.5", "--grid-step", "0.01"],
        os.path.join(workdir, "rho.json"), cli_rho_summary, {"lower": 1e-7, "upper": 1e-6},
        decision=True, undetermined=lambda a: not cli_rho_summary(a).get("certified", False)))

    # README taumin example.  Today it exits 1 ("bracket upper end undecidable
    # at the available budget"): the tool declines to decide, which counts as
    # an undetermined decision; any other error fails the query.
    def cli_declined(a):
        return a[0] == 1 and "undecidable" in a[2]

    def cli_taumin_invariant(a, answers):
        code, doc, err = a
        if cli_declined(a):
            return None
        if doc is None:
            return f"exit code {code} without a report: {err.strip()}"
        return _taumin_ok(doc["tau_reject"], doc["tau_accept"], doc["flags"], 0.05)

    q = _cli_query("cli_taumin_nodes", ["taumin", "--system", nodes_path, "--tau-lo", "0.6",
                                        "--tau-hi", "2.0", "--tol", "0.05"],
                   os.path.join(workdir, "taumin.json"), lambda a: {}, decision=True,
                   undetermined=lambda a: cli_declined(a) or a[0] == 2,
                   invariant=cli_taumin_invariant)
    q.referenced = False
    queries.append(q)
    # Run order (the inputs above are drawn first, so it does not change them):
    # each slow query (0.4 to 4 s) is followed by one of the 0.06 to 0.1 s
    # queries among which the median latency falls, and by a fast one, so the
    # median samples the whole pass rather than one stretch of it.
    order = ("planted13_fin_dwell0.5", "nodes0_fin_dwell1.4", "planted11_fin_dwell0.5",
             "planted9_fin_dwell0.5", "nodes1_rho_dwell1.0", "cqlf0_rho",
             "cli_finiteness_example_arb", "nodes2_rho_curve", "planted17_fin_dwell0.5",
             "cli_rho_example", "nodes2_tau_min", "planted23_fin_dwell0.5",
             "planted10_fin_dwell0.5", "cli_taumin_nodes", "cqlf1_rho", "example_rho_dwell0.5")
    by_key = {q.key: q for q in queries}
    assert sorted(order) == sorted(by_key), "verdict run order must name every query once"
    return [by_key[key] for key in order]


def _long_signal_queries(rng, workdir, rotate, alpha, segments=200, steps_per_segment=8):
    sysm = rotate_system(gallery.rotated_nodes_pair(*NODE_TEMPLATES[0]),
                         _orthogonal(rng, 2, rotate))
    # short dwells (0.1 to 0.15): per-segment costs dominate, and the Riccati
    # bisection takes nearly the same path, at nearly the same cost, on every signal
    durations = rng.uniform(0.1, 0.15, size=segments)
    sig = core.Signal(tuple((k % 2, float(d)) for k, d in enumerate(durations)))
    # one more signal of the same kind, for the gain bisection alone
    other = core.Signal(tuple((k % 2, float(d))
                              for k, d in enumerate(rng.uniform(0.1, 0.15, size=segments))))
    H = sig.horizon
    steps = segments * steps_per_segment
    dt = H / steps
    u = rng.standard_normal((steps, sysm.m))
    x0 = rng.standard_normal(sysm.n)
    tol = default(l2gain.gain_for_signal, "tol")
    # the energy ratios below use the trapezoid rule on `steps` output samples,
    # against the exact continuous-time gain: one percent covers the quadrature
    quad = 1e-2

    def gain_bound(answers):
        g = answers["gain_for_signal"].value
        return g * (1 + quad) + tol * max(g, 1.0)

    def transition_invariant(phi, answers):
        # product of per-segment exponentials, composed here independently
        want = np.eye(sysm.n)
        for i, d in sig.segments:
            want = scipy.linalg.expm(sysm.A(i) * d) @ want
        err = float(np.linalg.norm(phi - want))
        if not err <= 1e-9 * float(np.linalg.norm(want)):
            return f"transition off the product of segment exponentials by {err!r}"
        return None

    def endpoint_invariant(traj, answers, want, scale):
        err = float(np.linalg.norm(traj.states[-1] - want))
        if not err <= 1e-8 * scale:
            return f"endpoint off by {err!r} (scale {scale!r})"
        return None

    def free_invariant(traj, answers):
        phi = answers["transition"]
        return endpoint_invariant(traj, answers, phi @ x0,
                                  float(np.linalg.norm(phi)) * float(np.linalg.norm(x0)))

    def forced_invariant(traj, answers):
        y = traj.outputs
        w = np.full(len(y), dt)
        w[0] = w[-1] = dt / 2
        ratio = math.sqrt(float(np.sum(w[:, None] * y * y)) / (dt * float(np.sum(u * u))))
        if not ratio <= gain_bound(answers):
            return f"output/input energy ratio {ratio!r} exceeds the Riccati gain"
        return None

    def superposition(c):
        def invariant(traj, answers):
            free = answers["simulate_free"].states[-1]
            forced = answers["simulate_forced"].states[-1]
            scale = float(np.linalg.norm(free)) + abs(c) * float(np.linalg.norm(forced))
            return endpoint_invariant(traj, answers, free + c * forced, scale)
        return invariant

    def gramian_invariant(pair, answers):
        for name, W in (("wc", pair.wc), ("wo", pair.wo)):
            lam = np.linalg.eigvalsh(W)
            if not (np.allclose(W, W.T) and lam[0] >= -1e-9 * lam[-1] and lam[-1] > 0):
                return f"{name} is not symmetric positive semidefinite"
        return None

    def power_invariant(est, answers):
        if not 0 < est.value <= gain_bound(answers):
            return f"power-iteration ratio {est.value!r} exceeds the Riccati gain"
        return None

    def positive_gain(est, answers):
        return None if 0 < est.value < math.inf else f"gain {est.value!r}"

    def membership_invariant(report, answers):
        return None if report.ok else f"class-valid signal rejected: {report.violations[:1]}"

    floor = float(durations.min())

    def superposed(c):
        return Query(f"simulate_{c:g}u_x0", lambda: flows.simulate(sysm, sig, c * u, x0, dt),
                     referenced=False, invariant=superposition(c))

    # The simulate calls (about a tenth of the gain bisection's cost each) are
    # spread between the slow queries, so the median latency, which falls among
    # them, samples the whole pass rather than one stretch of it.  Three slow
    # queries per pass keep the tail percentile inside the simulate group too.
    queries = [
        Query("gain_for_signal", lambda: l2gain.gain_for_signal(sysm, sig, H),
              referenced=False, invariant=positive_gain),
        Query("transition", lambda: flows.transition(sysm, sig, 0.0, H),
              referenced=False, invariant=transition_invariant),
        Query("simulate_free", lambda: flows.simulate(sysm, sig, np.zeros_like(u), x0, dt),
              referenced=False, invariant=free_invariant),
        Query("simulate_forced", lambda: flows.simulate(sysm, sig, u, np.zeros(sysm.n), dt),
              referenced=False, invariant=forced_invariant),
        *(superposed(c) for c in (1.0, -1.0, 0.5)),
        Query("gain_power_lower_seed0",
              lambda: l2gain.gain_power_lower(sysm, sig, H, dt, seed=0),
              referenced=False, invariant=power_invariant),
        *(superposed(c) for c in (2.0, 3.0, -2.0)),
        Query("gramians", lambda: flows.gramians(sysm, sig, 0.0, H),
              referenced=False, invariant=gramian_invariant),
        Query("gain_for_signal_other",
              lambda: l2gain.gain_for_signal(sysm, other, other.horizon),
              referenced=False, invariant=positive_gain, inputs=(sysm, other)),
        *(superposed(c) for c in (1.5, -0.5)),
        Query("validate_membership",
              lambda: core.validate_membership(sig, core.SignalClassSpec.dwell(floor)),
              referenced=False, invariant=membership_invariant),
    ]
    for q in queries:
        q.inputs = q.inputs or (sysm, sig, u, x0, dt)
    return queries


_BUILDERS = {
    "gain_search": _gain_search_queries,
    "verdict": _verdict_queries,
    "long_signal": _long_signal_queries,
}


def build(workload, seed, workdir, passes, *, rotate=True):
    """Query lists for `passes` passes, generated from the seed alone.

    Each pass gets its own rotations and signals, so no pass repeats the
    inputs of another and a cache that outlives one query sees fresh inputs.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    alpha = gallery.alpha_star(1e-4)
    out = []
    for index in range(passes):
        rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), index])
        pass_dir = os.path.join(workdir, f"pass{index}")
        os.makedirs(pass_dir, exist_ok=True)
        out.append(_BUILDERS[workload](rng, pass_dir, rotate, alpha))
    return out


def _describe(obj, digest):
    """Shape of one library input; its values go into the digest."""
    if isinstance(obj, core.SystemSpec):
        for m in obj.modes:
            for M in (m.A, m.B, m.C):
                digest.update(np.ascontiguousarray(M).tobytes())
        return ["system", obj.n, obj.m, obj.p, obj.n_modes]
    if isinstance(obj, core.Signal):
        digest.update(np.asarray(obj.segments, dtype=float).tobytes())
        return ["signal", len(obj.segments)]
    if isinstance(obj, core.SignalClassSpec):
        digest.update(repr(obj).encode())
        return ["class", obj.kind]
    if isinstance(obj, np.ndarray):
        digest.update(np.ascontiguousarray(obj, dtype=float).tobytes())
        return ["array", *obj.shape]
    if isinstance(obj, dict):
        return {k: _describe(v, digest) for k, v in sorted(obj.items())}
    if isinstance(obj, (tuple, list)):
        return [_describe(v, digest) for v in obj]
    if isinstance(obj, str) and os.path.isfile(obj):
        with open(obj, "rb") as fh:
            digest.update(fh.read())
        return "file"
    digest.update(repr(obj).encode())
    return type(obj).__name__ if isinstance(obj, (int, float)) else repr(obj)


def fingerprint(passes):
    """(sha256 of every input value, shape of every query's inputs) for built passes."""
    digest = hashlib.sha256()
    shapes = [[(q.key, _describe(q.inputs, digest)) for q in queries] for queries in passes]
    return digest.hexdigest(), shapes


def load_reference(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
