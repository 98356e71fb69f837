"""Smoke test of the stage timer in tools/: it runs and writes its record."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_bench_stage_writes_a_labelled_record(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_stage", TOOLS / "bench_stage.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "SIZES", (16,))
    monkeypatch.setattr(bench, "BUDGET_S", 0.0)  # MIN_CALLS calls a layer
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"earlier": {}}))
    bench.main("smoke", out)
    record = json.loads(out.read_text())
    assert sorted(record) == ["earlier", "smoke"]
    run = record["smoke"]
    assert sorted(run) == ["budget_s", "commit", "cpus", "min_calls", "numpy",
                           "python", "statistic", "times", "unit"]
    assert sorted(run["times"]) == ["n16"]
    layers = run["times"]["n16"]
    assert sorted(layers) == ["init_state", "product_forward",
                              "rhs_primitive", "step_rk4"]
    for stats in layers.values():
        assert stats["calls"] == bench.MIN_CALLS
        assert 0 < stats["q1"] <= stats["median"] <= stats["q3"]
