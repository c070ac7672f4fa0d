"""Tests of the benchmark itself: seeded inputs, metric names, answer checks, counts.

    python3 -m pytest perfbench -q
"""

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
import types

import pytest

import run

run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
REFERENCE = workloads.load_reference(os.path.join(run.HERE, "reference.json"))


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _query(passes, key):
    return next(q for q in passes[0] if q.key == key)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_under_a_seed_and_change_with_it(workload, tmp_path):
    digests, shapes = [], []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        passes = workloads.build(workload, seed, str(tmp_path / sub), 2)
        digest, shape = workloads.fingerprint(passes)
        digests.append(digest)
        shapes.append(shape)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]
    assert shapes[0] == shapes[1] == shapes[2]


def test_passes_get_distinct_inputs(workdir):
    passes = workloads.build("long_signal", 5, workdir, 2)
    first, _ = workloads.fingerprint(passes[:1])
    second, _ = workloads.fingerprint(passes[1:])
    assert first != second


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "long_signal",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK[kind]})
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_checker_flags_corrupted_answers(workdir):
    passes = workloads.build("verdict", 3, workdir, 1)
    answers = {}

    fin = _query(passes, "nodes0_fin_dwell1.4")
    verdict = fin.run()
    assert workloads.check(fin, verdict, answers, REFERENCE) is None
    wrong = dataclasses.replace(verdict, verdict="infinite")
    assert "verdict" in workloads.check(fin, wrong, answers, REFERENCE)

    cqlf = _query(passes, "cqlf0_rho")
    est = cqlf.run()
    assert workloads.check(cqlf, est, answers, REFERENCE) is None
    low = dataclasses.replace(est, upper=est.lower * 0.999, lower=est.lower * 0.998)
    assert "misses e^beta" in workloads.check(cqlf, low, answers, REFERENCE)


def test_checker_flags_corrupted_flow(workdir):
    passes = workloads.build("long_signal", 3, workdir, 1)
    answers = {}
    transition = _query(passes, "transition")
    phi = transition.run()
    assert workloads.check(transition, phi, answers, REFERENCE) is None
    assert workloads.check(transition, phi * (1 + 1e-6), answers, REFERENCE)
    answers["transition"] = phi
    free = _query(passes, "simulate_free")
    traj = free.run()
    assert workloads.check(free, traj, answers, REFERENCE) is None
    bent = dataclasses.replace(traj, states=traj.states * (1.0 + 1e-4))
    assert "endpoint" in workloads.check(free, bent, answers, REFERENCE)


def test_checker_flags_gain_off_reference(workdir):
    passes = workloads.build("gain_search", 3, workdir, 1)
    q = _query(passes, "planted3_arb_T0.75")
    est = q.run()
    assert workloads.check(q, est, {}, REFERENCE) is None
    off = dataclasses.replace(est, value=est.value * 1.05)
    assert "value" in workloads.check(q, off, {}, REFERENCE)


_CHEAP = {
    "gain_search": ("planted3_arb_T0.75", "planted3_min_arb_T0.75"),
    "verdict": ("planted9_fin_dwell0.5", "nodes0_fin_dwell1.4", "cqlf0_rho", "nodes2_rho_curve",
                "nodes2_tau_min", "cli_taumin_nodes"),
    "long_signal": ("transition", "simulate_free", "gramians", "validate_membership"),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    counts = []
    for sub in ("a", "b"):
        passes = workloads.build(workload, 4, str(tmp_path / sub), 1)
        queries = [q for q in passes[0] if q.key in _CHEAP[workload]]
        tracer = spans.Tracer()
        tracer.install()
        try:
            records = run.run_pass(queries, REFERENCE, tracer)
        finally:
            tracer.uninstall()
        assert all(r[2] is None for r in records), records
        values = spans.summarize(tracer.spans, tracer.counts, set(range(len(queries))))
        counts.append({k: v for k, v in values.items()
                       if k.endswith((".calls", ".matrices", ".rhs_evals"))})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_uninstall_restores_the_library():
    import switchgain
    from switchgain import l2gain, spectral

    before = (l2gain.gain_search, l2gain.solve_ivp, spectral.np, switchgain.rho_upper)
    tracer = spans.Tracer()
    tracer.install()
    assert l2gain.gain_search is not before[0] and spectral.np is not before[2]
    tracer.uninstall()
    assert (l2gain.gain_search, l2gain.solve_ivp, spectral.np, switchgain.rho_upper) == before


def test_self_time_excludes_children():
    # parent 0..10 with children 1..3 and 4..8 (which has its own child 5..6)
    spans_ = [["l2gain.gain_search", 0.0, 10.0, -1, 0],
              ["l2gain.gain_for_signal", 1.0, 3.0, 0, 0],
              ["l2gain.gain_for_signal", 4.0, 8.0, 0, 0],
              ["kernel.solve_ivp", 5.0, 6.0, 2, 0]]
    values = spans.summarize(spans_, {}, {0})
    assert values["l2gain.gain_search.self_s"] == pytest.approx(4.0)
    assert values["l2gain.gain_for_signal.s"] == pytest.approx(6.0)
    assert values["l2gain.gain_for_signal.self_s"] == pytest.approx(5.0)
    assert values["l2gain.bisections_per_search"] == pytest.approx(2.0)


@pytest.mark.parametrize("flags,kwargs,retries,uncertified", [
    (("eps=0.005", "stabilized"), {}, 0, 0),
    (("eps=0.04", "stabilized"), {}, 3, 0),
    (("eps=0.02", "long_dwell_heuristic", "stabilized"), {"eps": 0.01}, 1, 1),
    # an exhausted certification reports the first eps after every attempt ran
    (("budget_exhausted", "eps=0.005", "stabilized"), {}, 3, 1),
    (("eps=0.005", "not_stabilized"), {"eps_attempts": 6}, 5, 1),
])
def test_rho_upper_retries_are_counted(flags, kwargs, retries, uncertified):
    counts = collections.defaultdict(int)
    spans._count_rho_upper(counts, (), kwargs, types.SimpleNamespace(flags=flags))
    assert counts["spectral.rho_upper.eps_retries"] == retries
    assert counts["spectral.rho_upper.uncertified"] == uncertified


def test_tail_has_ten_samples_beyond_it():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail(lat)
    assert sum(1 for v in lat if v > value) == 10
    assert pct == pytest.approx(89.0)


def test_commit_resolves_loose_and_packed_refs(tmp_path):
    sha = "0123456789abcdef0123456789abcdef01234567"
    (tmp_path / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert run.resolve_ref(str(tmp_path), "refs/heads/main") == sha
    (tmp_path / "refs" / "heads").mkdir(parents=True)
    (tmp_path / "refs" / "heads" / "dev").write_text("f" * 40 + "\n")
    assert run.resolve_ref(str(tmp_path), "refs/heads/dev") == "f" * 40
    assert run.resolve_ref(str(tmp_path), "refs/heads/gone") == "ref: refs/heads/gone"
