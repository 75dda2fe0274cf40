"""Every per-layer metric the benchmark declares names a traced function.

benchmark/spans.py wraps the pipeline's public functions by name, so a
renamed or removed function silently reads 0 in a traced run until
`benchmark/run.py --trace 1` refuses the unknown name. This checks the
declared names against the tracer's own list, without running anything.
"""

import importlib.util
import json
import os

import qscatter.cli  # noqa: F401  (the tracer reads the loaded modules)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans_module():
    spec = importlib.util.spec_from_file_location(
        "qscatter_benchmark_spans", os.path.join(ROOT, "benchmark", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_declared_per_layer_metric_is_one_the_tracer_gives():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    known = _spans_module().Tracer().known_metrics()
    assert declared and sorted(set(declared) - known) == []
