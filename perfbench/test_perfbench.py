"""Self-tests of the benchmark, at smoke sizes.

    python3 -m pytest perfbench -q

Run from the repository root.  They check that the reported metric names
match BENCHMARK.json, that the correctness gate rejects perturbed
output, and that the benchmark refuses a directory without the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import SMOKE_WORKLOADS, WORKLOADS, workload_q  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_end_to_end_metrics(workload):
    doc = _result(_bench("--workload", workload, "--seed", "0",
                         "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_smoke_reports_per_layer_metrics():
    doc = _result(_bench("--workload", "scan", "--seed", "7",
                         "--seconds", "1", "--trace", "1", "--smoke"))
    assert doc["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = doc["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    for layer in ("sector_basis", "operators", "brackets", "spectra"):
        assert metrics[f"{layer}.calls"]["value"] > 0
    assert metrics["trace.unbound"]["value"] == 0


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(SMOKE_WORKLOADS) == set(WORKLOADS)


def test_seed_draws_q():
    assert workload_q(0) == 0.5
    qs = [workload_q(s) for s in range(1, 50)]
    assert all(0.49 <= q <= 0.51 and round(q, 4) == q for q in qs)
    assert qs == [workload_q(s) for s in range(1, 50)]
    assert len(set(qs)) > 40


def _csv(argv: list[str]) -> str:
    from xxzdroplet.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _perturb(text: str, method: str, delta: float, nth: int = 0) -> str:
    lines = text.splitlines()
    seen = 0
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) > 7 and fields[7] == method:
            if seen == nth:
                fields[6] = repr(float(fields[6]) + delta)
                lines[i] = ",".join(fields)
                break
            seen += 1
    return "\n".join(lines) + "\n"


def test_gate_fails_on_perturbed_dispersion():
    q = 0.5
    for command in SMOKE_WORKLOADS["dispersion"]:
        text = _csv(command.argv(q))
        assert all(op.ok for op in command.check(q, text))
        ground = "kernel-lanczos" if "kernel-lanczos" in text else "kernel-dense"
        bad = _perturb(text, ground, 10 * command.tol)
        assert not all(op.ok for op in command.check(q, bad))
        bad = _perturb(text, "closed-form", 1e-9)
        assert not all(op.ok for op in command.check(q, bad))
        assert not any(op.ok for op in command.check(q, None))
    command = SMOKE_WORKLOADS["dispersion"][1]
    text = _csv(command.argv(q))
    bad = _perturb(text, "kernel-excited", -1.0)
    assert not all(op.ok for op in command.check(q, bad))


def test_gate_fails_on_perturbed_scan():
    q = 0.5
    kink, droplet = SMOKE_WORKLOADS["scan"]
    text = _csv(kink.argv(q))
    assert all(op.ok for op in kink.check(q, text))
    # a late point that no longer decreases
    ops = kink.check(q, _perturb(text, "gram-cholesky", 1.0, nth=5))
    assert [op.name for op in ops if not op.ok] == ["kink n=2 L=9"]
    # a point below the infinite-volume target
    ops = kink.check(q, _perturb(text, "gram-cholesky", -1.0, nth=8))
    assert not all(op.ok for op in ops)
    ops = kink.check(q, _perturb(text, "aitken-limit", 1e-2))
    assert [op.name for op in ops if not op.ok] == ["kink n=2 aitken-limit"]
    # an omitted L row
    dropped = "\n".join(
        line for line in text.splitlines() if not line.startswith("kink,7,")
    )
    assert [op.name for op in kink.check(q, dropped) if not op.ok] == ["kink n=2 L=7"]

    text = _csv(droplet.argv(q))
    assert all(op.ok for op in droplet.check(q, text))
    ops = droplet.check(q, _perturb(text, "monotone-flag", -1.0))
    assert [op.name for op in ops if not op.ok] == ["droplet n=2 monotone-flag"]


def test_refuses_directory_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dispersion",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
