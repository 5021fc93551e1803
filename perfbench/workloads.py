"""Workload definitions and the correctness gate for the benchmark.

A workload is a list of commands run through ``xxzdroplet.cli.main`` in
one fresh interpreter.  Each command knows its argv for a given ``q`` and
how to check the CSV it printed.  The checks recompute the closed-form
droplet energy here, independently of the package, and split the output
into operations: one per emitted point (a theta group of rows, or one
L row) and one per summary check.  An operation that is missing, or
misses its tolerance, fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass

# identity tolerance for emitted closed-form values (the package's own
# closed-form vs telescoped-sum tolerance)
CLOSED_FORM_TOL = 1e-12
# two grid points closer than this are the same theta
THETA_MATCH_TOL = 1e-12
# C2: how close the extrapolated limit must be to the target
LIMIT_WINDOW = 5e-3
# C2: how far below the target a kink energy may read
FLOOR_SLACK = 1e-12


# Seeds move q only this far from 0.5: across [0.45, 0.55] the kernel
# workload's Lanczos needs 70 to 102 iterations and its wall time moves
# by a third, which would swamp the run-to-run bound.
Q_HALF_WIDTH = 0.01


def workload_q(seed: int) -> float:
    """Seed 0 keeps q = 0.5; any other seed draws q from 0.5 +- Q_HALF_WIDTH."""
    if seed == 0:
        return 0.5
    return round(random.Random(seed).uniform(0.5 - Q_HALF_WIDTH, 0.5 + Q_HALF_WIDTH), 4)


def closed_form(q: float, n: int, theta: float) -> float:
    """E_n(theta) = alpha (1 - q^2n) / |1 + q^n e^{i Theta}|^2."""
    qn = q**n
    cap = 2.0 * math.atan((1.0 + qn) / (1.0 - qn) * math.tan(n * theta / 2.0))
    alpha = (1.0 - q * q) / (1.0 + q * q)
    return alpha * (1.0 - qn * qn) / (1.0 + 2.0 * qn * math.cos(cap) + qn * qn)


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(field: str) -> float | None:
    return float(field) if field not in ("", None) else None


def output_digest(texts: list[str | None]) -> str:
    """sha256 of every command's output with the ``seconds`` column cut."""
    h = hashlib.sha256()
    for text in texts:
        if text is None:
            h.update(b"<no output>\n")
            continue
        for line in text.splitlines():
            h.update(line.rsplit(",", 1)[0].encode())
            h.update(b"\n")
        h.update(b"--\n")
    return h.hexdigest()


@dataclass(frozen=True)
class Op:
    """One checked operation: an emitted point or a summary check."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Dispersion:
    """``dispersion``: per theta, kernel ground against the closed form."""

    n: int
    theta_steps: int
    nmax: int
    tol: float
    gap: bool = False

    def argv(self, q: float) -> list[str]:
        argv = [
            "dispersion", "--n", str(self.n), "--q", repr(q),
            "--theta-steps", str(self.theta_steps), "--nmax", str(self.nmax),
        ]
        return argv + ["--gap"] if self.gap else argv

    def thetas(self) -> list[float]:
        lo = -math.pi / self.n
        step = 2.0 * math.pi / self.n / (self.theta_steps + 1)
        return [lo + step * (i + 1) for i in range(self.theta_steps)]

    def check(self, q: float, text: str | None) -> list[Op]:
        rows = parse_csv(text) if text else []
        ops = []
        for theta in self.thetas():
            name = f"dispersion n={self.n} theta={theta:.6g}"
            group = [
                r for r in rows
                if r["bc"] == "infinite" and r["n"] == str(self.n)
                and r["theta_or_k"]
                and abs(float(r["theta_or_k"]) - theta) <= THETA_MATCH_TOL
            ]
            ops.append(self._check_group(q, theta, group, name))
        return ops

    def _check_group(self, q, theta, group, name) -> Op:
        want = closed_form(q, self.n, theta)
        by_method: dict[str, list[float]] = {}
        for r in group:
            by_method.setdefault(r["method"], []).append(_num(r["energy"]))
        closed = by_method.get("closed-form", [])
        ground = [
            e for m, es in by_method.items()
            if m.startswith("kernel-") and m != "kernel-excited" for e in es
        ]
        if len(closed) != 1 or len(ground) != 1:
            return Op(name, False, f"rows missing: {sorted(by_method)}")
        if abs(closed[0] - want) > CLOSED_FORM_TOL * max(1.0, abs(want)):
            return Op(name, False, f"closed-form {closed[0]!r} != {want!r}")
        err = abs(ground[0] - want)
        if not err <= self.tol:
            return Op(name, False, f"|kernel - closed form| = {err:.3g} > {self.tol:g}")
        if self.gap:
            excited = by_method.get("kernel-excited", [])
            if len(excited) != 1 or not excited[0] > ground[0]:
                return Op(name, False, f"excited {excited} not above ground {ground[0]!r}")
        return Op(name, True, f"|kernel - closed form| = {err:.3g}")


@dataclass(frozen=True)
class Scan:
    """``scan-convergence``: per L row, then the limit and flag rows."""

    bc: str
    n: int
    L_min: int
    L_max: int
    delta: float | None = None

    def argv(self, q: float) -> list[str]:
        argv = ["scan-convergence", "--bc", self.bc]
        if self.delta is not None:
            argv += ["--delta", repr(self.delta)]
        return argv + [
            "--n", str(self.n), "--q", repr(q),
            "--L-min", str(self.L_min), "--L-max", str(self.L_max),
        ]

    def lengths(self) -> range:
        lo = max(self.L_min, 2 * self.n if self.bc == "kink" else self.n)
        return range(lo, self.L_max + 1)

    def check(self, q: float, text: str | None) -> list[Op]:
        rows = [
            r for r in (parse_csv(text) if text else [])
            if r["bc"] == self.bc and r["n"] == str(self.n)
        ]
        target = closed_form(q, self.n, 0.0)
        tag = f"{self.bc} n={self.n}"
        ops = []
        prev = None
        for L in self.lengths():
            found = [_num(r["energy"]) for r in rows if r["L"] == str(L)]
            name = f"{tag} L={L}"
            if len(found) != 1 or found[0] is None or not math.isfinite(found[0]):
                ops.append(Op(name, False, f"rows {found}"))
                prev = None
                continue
            e = found[0]
            ok = True
            detail = f"E={e!r}"
            if self.bc == "kink":
                if e < target - FLOOR_SLACK:
                    ok, detail = False, f"E={e!r} below target {target!r}"
                elif prev is not None and not e < prev:
                    ok, detail = False, f"E={e!r} not below E(L-1)={prev!r}"
            ops.append(Op(name, ok, detail))
            prev = e

        summary = {r["method"]: _num(r["energy"]) for r in rows if r["L"] == ""}
        limit = summary.get("aitken-limit")
        ok = limit is not None and abs(limit - target) <= LIMIT_WINDOW
        ops.append(Op(f"{tag} aitken-limit", ok, f"limit {limit!r}, target {target!r}"))
        emitted = summary.get("closed-form-target")
        ok = emitted is not None and abs(emitted - target) <= CLOSED_FORM_TOL
        ops.append(Op(f"{tag} closed-form-target", ok, f"{emitted!r} vs {target!r}"))
        flag = summary.get("monotone-flag")
        ops.append(Op(f"{tag} monotone-flag", flag == 1.0, f"flag {flag!r}"))
        return ops


# Why each workload is here is recorded in BENCHMARK.json and README.md.
# The two dispersion commands share one workload, and the dense one stays
# at n_max = 30 (dim 900), so that two workloads can each run 60 s on a
# shared host whose speed drifts over minutes.
WORKLOADS = {
    "dispersion": (
        Dispersion(n=4, theta_steps=1, nmax=80, tol=1e-8),
        Dispersion(n=3, theta_steps=2, nmax=30, tol=1e-6, gap=True),
    ),
    "scan": (
        Scan("kink", n=3, L_min=6, L_max=18),
        Scan("droplet", n=5, L_min=16, L_max=22, delta=1.0),
    ),
}

# Tiny sizes that take the same code paths (Lanczos above DENSE_GUARD for
# the first dispersion command, dense below it for the second); used by the
# self-tests.
SMOKE_WORKLOADS = {
    "dispersion": (
        Dispersion(n=3, theta_steps=1, nmax=68, tol=1e-8),
        Dispersion(n=2, theta_steps=2, nmax=30, tol=1e-6, gap=True),
    ),
    "scan": (
        Scan("kink", n=2, L_min=4, L_max=12),
        Scan("droplet", n=2, L_min=4, L_max=12, delta=1.0),
    ),
}
