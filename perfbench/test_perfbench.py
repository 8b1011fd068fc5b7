"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra: str, cwd: Path = ROOT, trace: int = 0,
              workload: str = "conv-ex2-256") -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_every_workload_and_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert units("per_layer") == dict(tracer.METRICS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit_and_no_failures(workload, trace):
    proc = run_bench(workload=workload, trace=trace)
    result = result_line(proc)
    want = units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert result["failed"] == 0 and result["correct"], proc.stdout
    assert "failed_frac" in proc.stdout
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.unwrapped"]["value"] == 0
        assert abs(metrics["trace.accounted_frac"]["value"] - 1.0) < 0.05
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tail_is_the_same_percentile_at_any_sample_count():
    import run

    assert run.tail([float(x) for x in range(100, 0, -1)]) == (90.0, 10)
    assert run.tail([float(x) for x in range(1, 1001)]) == (900.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)


def copy_bench(tmp_path: Path, with_sources: bool) -> Path:
    """A checkout in `tmp_path` holding the benchmark, and a link to the sources."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def test_perturbed_reference_fails_the_gate(tmp_path):
    root = copy_bench(tmp_path, with_sources=True)
    path = root / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    key = workloads.study_key(workloads.ExampleId.EXAMPLE2, 0.5, 10.0)
    refs["studies"][key]["16"][0] *= 1.0 + 1e-5
    path.write_text(json.dumps(refs))

    result = result_line(run_bench(cwd=root))
    assert result["failed"] >= 1 and not result["correct"]
    assert set(result["metrics"]) == set(units("end_to_end"))


def test_refuses_a_directory_without_sources(tmp_path):
    proc = run_bench(cwd=copy_bench(tmp_path, with_sources=False))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def traced_call(call, targets) -> tracer.Tracer:
    """Spans of one traced call with the given wrap targets."""
    spans = tracer.Tracer()
    with spans.installed(targets):
        with spans.span(call.entry, "cli"):
            call.run(spans.wrap_problem(call.data))
    return spans


def layer_metrics(spans: tracer.Tracer) -> dict:
    wall = spans.spans[0][3] - spans.spans[0][2]
    metrics = tracer.pass_metrics(spans.spans, 0, wall)
    assert sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(wall)
    return metrics


def test_missing_target_is_listed_and_its_children_fall_into_cli():
    import trifield.cli

    original = trifield.cli.assemble
    call = workloads.build_calls("sweep-ex1-32", seed=1, tiny=True)[0]
    renamed = [t for t in tracer.TARGETS if t[1] != "assemble"]
    renamed.append(("trifield.cli", "assemble_blocks", "assembly"))

    before = traced_call(call, tracer.TARGETS)
    after = traced_call(call, renamed)
    assert before.unwrapped == []
    assert after.unwrapped == ["trifield.cli.assemble_blocks"]
    assert trifield.cli.assemble is original

    # the same spans, less those of assemble; what assemble enclosed now
    # hangs directly off the entry-point span (index 0, layer cli)
    assemble = {i for i, row in enumerate(before.spans) if row[0] == "assemble"}
    kept = [row for row in before.spans if row[0] != "assemble"]
    assert [row[0] for row in after.spans] == [row[0] for row in kept]
    enclosed = [(old, new) for old, new in zip(kept, after.spans) if old[4] in assemble]
    assert enclosed
    assert {new[4] for _, new in enclosed} == {0} and after.spans[0][1] == "cli"

    metrics_before, metrics_after = layer_metrics(before), layer_metrics(after)
    assert metrics_after["assembly.self_s"] == 0.0
    assert metrics_before["linsolve.cg_iterations"] > 0
    for name in tracer.COUNT_METRICS:
        if name in metrics_before and name != "assembly.block_nnz":
            assert metrics_after[name] == metrics_before[name], name
