"""The bench regression checker skips what it cannot compare, with a cause."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_regression", CHECKER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def service_payload(cpus: int, ratio_4w: float) -> dict:
    return {
        "records": 30000,
        "seed": 7,
        "scaling_cpu_count": cpus,
        "scaling_throughput_ratio_4w": ratio_4w,
        "sharded_warm_over_single_ratio": 1.0,
    }


def test_throughput_ratio_needs_equal_cpu_counts():
    checker = load_checker()
    comparisons, skip, skipped = checker.compare_bench(
        "service", service_payload(1, 0.94), service_payload(2, 0.10)
    )
    assert skip is None
    metrics = {c.metric for c in comparisons}
    assert "scaling_throughput_ratio_4w" not in metrics
    assert "sharded_warm_over_single_ratio" in metrics
    (line,) = skipped
    assert "scaling_throughput_ratio_4w" in line
    assert "baseline 1" in line and "current 2" in line


def test_throughput_ratio_compared_on_equal_cpu_counts():
    checker = load_checker()
    comparisons, _skip, skipped = checker.compare_bench(
        "service", service_payload(2, 0.94), service_payload(2, 0.10)
    )
    assert skipped == []
    (ratio,) = [c for c in comparisons if c.metric == "scaling_throughput_ratio_4w"]
    assert not ratio.ok  # a real drop still trips


def test_main_prints_the_skip(tmp_path, capsys):
    checker = load_checker()
    results, baselines = tmp_path / "results", tmp_path / "baselines"
    results.mkdir()
    baselines.mkdir()
    (baselines / "BENCH_service.json").write_text(json.dumps(service_payload(1, 0.94)))
    (results / "BENCH_service.json").write_text(json.dumps(service_payload(2, 0.10)))
    code = checker.main(["--results", str(results), "--baselines", str(baselines)])
    out = capsys.readouterr().out
    assert code == 0
    assert "skipped] service:scaling_throughput_ratio_4w" in out
    assert "scaling_cpu_count differs (baseline 1, current 2)" in out
