"""Tests of the benchmark's own code: span arithmetic, output checks, seeding.

    python3 -m pytest -q perfbench/tests
"""

import json
import math

import numpy as np
import pytest

import run
import spans
import workloads
from kpztail import spectral, variational
from kpztail.grids import SpaceGrid
from spans import Span, Tracer, layer_self_times, self_times, verify_untraced


def _tree():
    # bench [0, 10] > solver [1, 4] > spectral [2, 3]
    #              > rearrange [5, 9] > solver [6, 7]
    return [
        Span(0, "pass", "bench", 0.0, 10.0, None, 1),
        Span(1, "solver.a", "solver", 1.0, 4.0, 0, 1),
        Span(2, "spectral.b", "spectral", 2.0, 3.0, 1, 1),
        Span(3, "rearrange.c", "rearrange", 5.0, 9.0, 0, 1),
        Span(4, "solver.d", "solver", 6.0, 7.0, 3, 1),
    ]


def test_self_time_of_nested_spans():
    assert self_times(_tree()) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0}
    layers = layer_self_times(_tree())
    assert layers == {"bench": 3.0, "solver": 3.0, "spectral": 1.0, "rearrange": 3.0}
    assert sum(layers.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    tree = [Span(0, "p", "bench", 0.0, 10.0, None, 1),
            Span(1, "x", "solver", 1.0, 4.0, 0, 1),
            Span(2, "y", "solver", 3.0, 5.0, 0, 1),
            Span(3, "z", "solver", 8.0, 12.0, 0, 1)]  # clipped at the parent's end
    assert self_times(tree)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_tracer_records_nested_layers_and_restores_attributes():
    tracer = Tracer()
    grid = SpaceGrid(10.0, 201)
    phi = spectral.rho_star(grid)
    verify_untraced()
    with tracer.installed(), tracer.root("pass"):
        with pytest.raises(RuntimeError):
            verify_untraced()
        spectral.ground_state(phi)
        spectral.potbd_bound(phi)
    verify_untraced()
    spectral.ground_state(phi)  # not recorded once restored
    names = [(s.name, s.layer, s.parent) for s in tracer.spans]
    assert names == [("pass", "bench", None), ("spectral.ground_state", "spectral", 0),
                     ("spectral.potbd_bound", "spectral", 0)]
    assert tracer.spans[1].info == {"n": 201}
    metrics = spans.layer_metrics(tracer.run_spans(1))
    assert metrics["spectral.ground_state_calls"] == 1
    assert metrics["spectral.ground_state_us"] > 0
    assert metrics["trace.spans"] == 2
    assert metrics["solver.busy_s"] == 0.0


def _canned_rate_phi(reference, scale=1.0, fail_first=False):
    calls = []

    def fake(lam, opts):
        calls.append(opts.init)
        if fail_first and len(calls) == 1:
            raise RuntimeError("solver blew up")
        ref = reference[opts.init]
        cert = ref.get("upper_certificate", math.nan)
        return variational.RateReport(lam, ref["phi_hat"] * scale, None, 0.0,
                                      ref["iterations"], cert, True)
    return fake


def test_rate_checker_accepts_reference_and_flags_perturbation(monkeypatch):
    reference = workloads.load_reference()
    inputs = workloads.make_inputs("rate", 3, None, reference)
    assert inputs.reference is reference["rate"]  # fixed inputs: always checked

    monkeypatch.setattr(variational, "rate_phi", _canned_rate_phi(reference["rate"]))
    rec = workloads.run_pass(inputs)
    assert (rec.attempted, rec.failed) == (2, 0)

    monkeypatch.setattr(variational, "rate_phi", _canned_rate_phi(reference["rate"], 1 + 1e-3))
    rec = workloads.run_pass(inputs)
    assert (rec.attempted, rec.failed) == (2, 2)
    assert "phi_hat" in rec.problems["rho_star"][0]


def test_failed_operation_is_counted_and_the_pass_goes_on(monkeypatch):
    reference = workloads.load_reference()
    inputs = workloads.make_inputs("rate", 0, None, reference)
    monkeypatch.setattr(variational, "rate_phi",
                        _canned_rate_phi(reference["rate"], fail_first=True))
    rec = workloads.run_pass(inputs)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert rec.problems["rho_star"] == ["RuntimeError: solver blew up"]
    assert rec.problems["half_rho_star"] == []


def test_limit_shape_fingerprint_tolerates_roundoff_only():
    body = "t,x,h_lambda,h_star,abs_err\n" + "".join(
        f"{t},{x},{0.1 * t - 0.3 * x:.12g},{0.1 * t:.12g},{abs(0.3 * x):.12g}\n"
        for t in (0.5, 1.0, 1.5) for x in (-1.0, 0.0, 1.0))
    ref = {"L8": workloads.csv_fingerprint(body)}
    lines = body.splitlines()
    row = lines[4].split(",")

    def edited(h):
        return "\n".join(lines[:4] + [",".join(row[:2] + [h] + row[3:])] + lines[5:]) + "\n"

    nudged = edited(repr(float(row[2]) * (1 + 1e-13)))
    assert workloads.compare("L8", workloads.csv_fingerprint(nudged), ref, {}) == []
    moved = edited(repr(float(row[2]) + 1e-6))
    assert workloads.compare("L8", workloads.csv_fingerprint(moved), ref, {})


def test_reference_entries_flag_perturbed_values():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        for op, values in reference[workload].items():
            skip = {"csv_sha256": None}
            assert workloads.compare(op, values, reference[workload], skip) == []
            key = next(k for k, v in values.items() if not isinstance(v, str))
            bumped = dict(values, **{key: (np.asarray(values[key]) + 2.0).tolist()})
            assert workloads.compare(op, bumped, reference[workload], skip), (workload, op)


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif hasattr(obj, "values") and isinstance(getattr(obj, "values"), np.ndarray):
        yield obj.values
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


def test_one_seed_gives_identical_inputs_and_another_seed_changes_them():
    a = workloads.make_inputs("probes", 5, None).data
    b = workloads.make_inputs("probes", 5, None).data
    c = workloads.make_inputs("probes", 6, None).data
    pairs = list(zip(_arrays(a), _arrays(b)))
    assert len(pairs) > 500
    assert all(x.tobytes() == y.tobytes() for x, y in pairs)
    assert not any(np.array_equal(x.values, y.values) for x, y in zip(a["fields"], c["fields"]))

    keys = [cfg.seed for _, cfg in workloads.make_inputs("bridge_mc", 5, None).data["growth"].values()]
    assert keys == [cfg.seed for _, cfg in
                    workloads.make_inputs("bridge_mc", 5, None).data["growth"].values()]
    other = workloads.bridge_keys(6)
    assert workloads.bridge_keys(5) != other
    assert not set(workloads.bridge_keys(5)) & set(other)


def test_reference_applies_only_to_recorded_inputs():
    reference = workloads.load_reference()
    seed = workloads.DEFAULT_SEED
    assert workloads.make_inputs("bridge_mc", seed, None, reference).reference is not None
    assert workloads.make_inputs("bridge_mc", seed + 1, None, reference).reference is None
    assert workloads.make_inputs("limit_shape", seed + 1, "out", reference).reference is not None


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(run.END_TO_END.items()) == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert list(run.PER_LAYER.items()) == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert set(spans.layer_metrics([])) | {"trace.untraced_wall_s", "trace.overhead_s"} == set(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
