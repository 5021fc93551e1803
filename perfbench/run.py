"""Benchmark driver for xxzdroplet.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dispersion --seed 0 --seconds 60 --trace 0

Each sample runs the workload's commands through ``xxzdroplet.cli.main``
in a fresh interpreter (``worker.py``), one process at a time, and
repeats until ``--seconds`` would be exceeded by another sample.  Every
emitted number is checked (``workloads.py``).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` each
sample is run untraced, traced and under ``-X importtime``, and the last
line carries the per-layer metrics.  Every metric is the median over
the run's samples; the lines above it give quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, layer_metrics
from workloads import SMOKE_WORKLOADS, WORKLOADS, Op, output_digest, workload_q

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = ".perfbench_out"

# One BLAS thread count for every run on every commit, never above nproc.
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# every child process is killed once the run reaches this age
HARD_LIMIT_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "passed_frac": "ratio",
}
PER_LAYER = {
    "sector_basis.self_s": "s",
    "sector_basis.calls": "count",
    "sector_basis.states": "count",
    "operators.self_s": "s",
    "operators.calls": "count",
    "operators.rows": "count",
    "operators.nnz": "count",
    "operators.us_per_row": "us/row",
    "brackets.self_s": "s",
    "brackets.calls": "count",
    "brackets.hw_states": "count",
    "bethe.self_s": "s",
    "bethe.calls": "count",
    "bethe.certified_frac": "ratio",
    "spectra.self_s": "s",
    "spectra.calls": "count",
    "spectra.dense_calls": "count",
    "spectra.lanczos_calls": "count",
    "spectra.lanczos_iterations": "count",
    "spectra.dense_max_dim": "count",
    "spectra.krylov_mib": "MiB",
    "spectra.failures": "count",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    **{f"{layer}.import_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.unbound": "count",
}


class SetupError(RuntimeError):
    """The package cannot be run from this directory."""


class Runner:
    """Starts worker interpreters under one pinned environment."""

    def __init__(self, root: Path, started: float):
        self.root = root
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(root / "src"), self.env.get("PYTHONPATH")))
        )
        self.env["PYTHONHASHSEED"] = "0"
        for var in BLAS_VARS:
            self.env[var] = str(BLAS_THREADS)

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.started + HARD_LIMIT_S - time.perf_counter())
        return subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=timeout,
        )

    def worker(self, commands: list[list[str]], traced: bool = False) -> dict | None:
        """One fresh interpreter; None when it crashed or timed out."""
        argv = [sys.executable, str(WORKER), json.dumps(commands)]
        try:
            proc = self._run(argv + (["--trace"] if traced else []))
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode == 3:
            raise SetupError(" ".join(proc.stderr.strip().splitlines()[-1:]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return None
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(doc["package"]).resolve().is_relative_to(self.root / "src"):
            raise SetupError(f"imported xxzdroplet from {doc['package']}")
        return doc

    def import_times(self) -> dict[str, float] | None:
        """Cumulative import seconds per package module, from -X importtime."""
        argv = [sys.executable, "-X", "importtime", "-c", "import xxzdroplet.cli"]
        try:
            proc = self._run(argv)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            return None
        out = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("xxzdroplet."):
                layer = parts[2].split(".", 1)[1]
                if layer in LAYERS:
                    out[f"{layer}.import_s"] = int(parts[1]) / 1e6
        return out


def read_commit(root: Path) -> str:
    """HEAD of a git checkout in ``root`` itself, else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def command_ops(commands, q: float, doc: dict | None) -> tuple[list[Op], str | None]:
    """Checked operations of one sample and its output digest."""
    if doc is None:
        return [op for c in commands for op in c.check(q, None)], None
    ops, texts = [], []
    for command, res in zip(commands, doc["commands"]):
        ok = res["rc"] == 0 and res["error"] is None
        text = res["stdout"] if ok else None
        texts.append(text)
        found = command.check(q, text)
        if not ok:
            found = [Op(o.name, False, f"rc={res['rc']} {res['error']}") for o in found]
        ops.extend(found)
    return ops, output_digest(texts)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes on the same code paths (self-tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "xxzdroplet" / "cli.py").is_file():
        print("error: run from the root of an xxzdroplet checkout "
              "(src/xxzdroplet/cli.py not found)", file=sys.stderr)
        return 2

    q = workload_q(args.seed)
    commands = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    argvs = [c.argv(q) for c in commands]
    runner = Runner(root, started)
    deadline = started + args.seconds
    traced = bool(args.trace)

    try:
        # fills the bytecode and page caches, which users do not pay per run
        warm = runner.worker([])
        if warm is None:
            raise SetupError("import-only interpreter failed")
        plain, traces, imports, overhead, ops = [], [], [], [], []
        digests: set[str | None] = set()
        last = 0.0
        while not plain or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            doc = runner.worker(argvs)
            found, digest = command_ops(commands, q, doc)
            ops += found
            digests.add(digest)
            if doc is None:
                break
            plain.append(doc)
            if traced:
                tdoc = runner.worker(argvs, traced=True)
                found, digest = command_ops(commands, q, tdoc)
                ops += found
                digests.add(digest)
                itimes = runner.import_times()
                if tdoc is None or itimes is None:
                    break
                traces.append(tdoc)
                imports.append(itimes)
                overhead.append(tdoc["wall_s"] / doc["wall_s"] - 1.0)
            last = time.perf_counter() - t0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not plain or (traced and not traces):
        print("error: no sample completed", file=sys.stderr)
        return 4

    # one determinism check per sample after the first
    samples = len(plain) + len(traces)
    ops += [
        Op("digest", len(digests) == 1, f"{len(digests)} distinct digests")
        for _ in range(samples - 1)
    ]
    attempted = len(ops)
    failed = sum(not o.ok for o in ops)

    series: dict[str, list[float]] = {}
    layers = [layer_metrics(t["spans"]) for t in traces]
    if traced:
        for layer, tdoc, itimes, frac in zip(layers, traces, imports, overhead):
            row = {**layer, **itimes, "trace.overhead_frac": frac,
                   "trace.unbound": len(tdoc["unbound"])}
            for name in PER_LAYER:
                series.setdefault(name, []).append(row.get(name, 0.0))
        units = PER_LAYER
    else:
        series["wall_s"] = [d["wall_s"] for d in plain]
        series["setup_s"] = [d["setup_s"] for d in plain]
        series["peak_rss_mib"] = [d["peak_rss_mib"] for d in plain]
        series["passed_frac"] = [1.0 - failed / attempted]
        units = END_TO_END

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "q": q,
        "argv": argvs,
        "smoke": args.smoke,
        "commit": read_commit(root),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        **plain[0]["versions"],
    }
    print(f"env {json.dumps(env)}")
    print(f"digest {' '.join(sorted(d or 'none' for d in digests))}")
    print("samples wall_s " + " ".join(f"{d['wall_s']:.4g}" for d in plain))
    if traced:
        self_s = statistics.median(
            sum(v for k, v in layer.items() if k.endswith(".self_s")) for layer in layers
        )
        print(f"accounted: layer self_s sum {self_s:.4g} s, traced wall_s "
              f"{statistics.median(t['wall_s'] for t in traces):.4g} s, untraced "
              f"wall_s {statistics.median(d['wall_s'] for d in plain):.4g} s")
        if traces[-1]["unbound"]:
            print(f"unbound {' '.join(traces[-1]['unbound'])}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}  unit")
    metrics = {}
    for name, unit in units.items():
        q1, med, q3 = quartiles(series[name])
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(series[name]):4d}  {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:12.6g} "
          f"({failed} of {attempted} operations)  ratio")
    for o in ops:
        if not o.ok:
            print(f"FAILED {o.name}: {o.detail}")

    if traced:
        out = root / OUT_DIR
        out.mkdir(exist_ok=True)
        path = out / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({
            "env": env, "metrics": metrics,
            "unbound": traces[-1]["unbound"], "spans": traces[-1]["spans"],
        }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
