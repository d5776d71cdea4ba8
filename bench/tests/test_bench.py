"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, inv, name, start, end, counts=None):
    return tracer.Span(sid, parent, inv, name, name.split(".")[0], start, end, counts or {})


def test_self_times_add_up_to_wall():
    # invocation 0, wall 10: alignment.build_beamformers [1, 7] holds
    # channel.wtilde_matrix [2, 3] and rates.dof_fit [4, 6], which holds
    # rates.coupling_matrices [4.5, 5]; grassmann.sample_uniform [8, 9] is top level
    spans = [
        _span(0, None, 0, "alignment.build_beamformers", 1.0, 7.0, {"alignment.failures": 0}),
        _span(1, 0, 0, "channel.wtilde_matrix", 2.0, 3.0, {"channel.dense_bytes": 16}),
        _span(2, 0, 0, "rates.dof_fit", 4.0, 6.0),
        _span(3, 2, 0, "rates.coupling_matrices", 4.5, 5.0),
        _span(4, None, 0, "grassmann.sample_uniform", 8.0, 9.0),
        # invocation 1, wall 2: one top-level span of 0.5
        _span(5, None, 1, "rates.dof_fit", 0.0, 0.5),
    ]
    totals = tracer.self_times(spans, {0: 10.0, 1: 2.0})
    assert totals["alignment.self_s"] == pytest.approx(3.0)
    assert totals["alignment.build.calls"] == 1
    assert totals["channel.self_s"] == pytest.approx(1.0)
    assert totals["channel.dense.self_s"] == pytest.approx(1.0)
    assert totals["channel.dense_bytes"] == 16
    assert totals["rates.self_s"] == pytest.approx(1.5 + 0.5 + 0.5)
    assert totals["rates.calls"] == 3
    assert totals["grassmann.self_s"] == pytest.approx(1.0)
    assert totals["cli.self_s"] == pytest.approx((10.0 - 7.0) + (2.0 - 0.5))
    layers = sum(totals[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + totals["cli.self_s"] == pytest.approx(12.0)


def test_per_layer_metrics_are_means_per_invocation():
    totals = {"alignment.build.calls": 4, "alignment.failures": 1, "rates.self_s": 2.0}
    metrics = tracer.per_layer_metrics(totals, invocations=2, overhead_s=0.25)
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["alignment.calls"]["value"] == 2
    assert metrics["alignment.ok_ratio"]["value"] == 0.75
    assert metrics["rates.self_s"]["value"] == 1.0
    assert metrics["trace.overhead_s"]["value"] == 0.25
    assert tracer.per_layer_metrics({}, 1, 0.0)["alignment.ok_ratio"]["value"] == 1.0


def _bindings():
    """Every (module or class, attribute) -> object a tracer would wrap."""
    run.import_cli()
    originals = {id(t[4]) for t in tracer.targets()}
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "iafb" or name.startswith("iafb.")):
            for attr, value in vars(module).items():
                if id(value) in originals:
                    out[(name, attr)] = value
    channel = sys.modules["iafb.channel"]
    out[("ReconstructedChannel", "wtilde_matrix")] = vars(channel.ReconstructedChannel)["wtilde_matrix"]
    return out


def test_remove_restores_every_original():
    before = _bindings()
    assert ("iafb.cli", "build_beamformers") in before
    assert ("iafb.channel", "encode") in before
    t = tracer.Tracer()
    t.install()
    try:
        cli = sys.modules["iafb.cli"]
        assert cli.build_beamformers is not before[("iafb.cli", "build_beamformers")]
        assert sys.modules["iafb.channel"].encode is not before[("iafb.channel", "encode")]
    finally:
        t.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_tracer_records_parent_and_counts():
    run.import_cli()
    import iafb

    t = tracer.Tracer()
    t.install()
    try:
        t.invocation = 7
        value = iafb.grassmann.sum_dist_sq_cdf(2, 2, 1.5, trials=1000, rng=0)
    finally:
        t.remove()
    assert 0.0 < value < 1.0
    outer, inner = t.spans
    assert (outer.name, outer.parent, outer.invocation) == ("grassmann.sum_dist_sq_cdf", None, 7)
    assert (inner.name, inner.parent) == ("grassmann.empirical_ball_cdf", outer.sid)
    assert inner.counts == {"grassmann.mc_samples": 1000}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_verdict_rule():
    parent = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25..106.75
    assert compare.verdict(parent, [x + 20 for x in parent], "higher", 0.1)[0] == "improved"
    assert compare.verdict(parent, [x - 20 for x in parent], "lower", 0.1)[0] == "improved"
    # wins every pair but by less than the parent's own spread
    assert compare.verdict(parent, [x + 1 for x in parent], "higher", 0.1)[0] == "within bound"
    assert compare.verdict(parent, [x - 30 for x in parent], "higher", 0.1)[0] == "worse"
    assert compare.verdict(parent, [x + 30 for x in parent], "lower", 0.1)[0] == "worse"
    wide = [50.0, 150.0] * 5
    assert compare.verdict(wide, wide[::-1], "higher", 0.1)[0] == "unresolved"
    # fewer than ten pairs can never claim a gain
    assert compare.verdict(parent[:5], [x + 20 for x in parent[:5]], "higher", 0.1)[0] == "within bound"
    assert compare.verdict(parent, parent, "higher", 0.1)[1] == (0, 0)


def test_workload_seed_fixes_the_argv():
    for w in workloads.WORKLOADS.values():
        assert workloads.cycle(w, 3) == workloads.cycle(w, 3)
        assert workloads.cycle(w, 0) != workloads.cycle(w, 1)
        assert len(workloads.cycle(w, 5)) == w.per_cycle
        for argv in workloads.cycle(w, 5):
            assert int(argv[-1]) in workloads.POOL


def test_check_output_rejects_wrong_outputs():
    w = workloads.WORKLOADS["codebook-distortion"]
    ref = workloads.load_references()[workloads.reference_key(w, 0, tiny=False)]
    workloads.check_output(w, 0, ref, ref)
    lines = ref.splitlines()
    row = lines[2].split(",")
    row[3] = repr(float(row[3]) * (1 + 1e-4))
    bad_value = "\n".join(lines[:2] + [",".join(row)] + lines[3:])
    bad_header = ref.replace("mean_sq_distortion", "msd")
    bad_gate = ref.replace("ok=1", "ok=0")
    for text, code in ((ref, 1), (bad_value, 0), (bad_header, 0), (bad_gate, 0)):
        with pytest.raises(workloads.OutputError):
            workloads.check_output(w, code, text, ref)


def test_invocation_failure_is_recorded(tmp_path):
    class RaisingCli:
        @staticmethod
        def main(argv):
            raise RuntimeError("stream swallowed by interference")

    w = workloads.WORKLOADS["align-leakage"]
    record = run.invoke(RaisingCli, w, w.argv(0), tmp_path / "x.csv", None, tiny=False)
    assert not record["ok"] and record["units"] == 0
    assert "RuntimeError: stream swallowed" in record["reason"]
    assert "Traceback" in record["traceback"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name):
    w = workloads.WORKLOADS[name]
    plain = run.run(name, workloads.SMOKE_SEED, 0.0, trace=False, tiny=True)
    assert plain["failed"] == 0, [r["reason"] for r in plain["invocations"]]
    assert plain["attempted"] == w.per_cycle
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(plain["metrics"][m]["value"] > 0 for m in run.END_TO_END_UNITS)
    traced = run.run(name, workloads.SMOKE_SEED, 0.0, trace=True, tiny=True)
    assert traced["failed"] == 0
    assert [r["traced"] for r in traced["invocations"]] == [False] * w.per_cycle + [True] * w.per_cycle
    assert set(traced["metrics"]) == set(tracer.PER_LAYER)
