"""Command-line front end: scan drivers and the verify report.

Subcommands
-----------
sector-spectrum   lowest eigenvalues of one magnetization sector (or one
                  momentum block of the cyclic chain)
hw-spectrum       E(L, n): ground energy of the kink chain over the
                  highest-weight subspace, by the Gram route, the direct
                  bracket-basis route, or both
dispersion        droplet dispersion over a uniform grid inside the
                  momentum cell (-pi/n, pi/n): closed form, truncated
                  kernel, and the alternative explicit formula side by
                  side
scan-convergence  energy vs chain length plus the extrapolated limit and
                  the closed-form target
verify            invariant batteries (``xxzdroplet.verify``) with a
                  machine-readable verdict

Reporting is CSV (default) or JSON with a fixed schema; rows sort by
(bc, L, n, theta_or_k, method) and floats print with 17 significant
digits, so identical flags give byte-identical output except for the
wall-time column.  Exit codes: 0 success, 1 failed verification,
2 usage error (including an --out or --export-matrix path that cannot
be written), 3 dimension guard or allocation refused (a MemoryError),
4 solver failure (Lanczos or power
iteration hit its cap; the message carries the best estimates).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bethe import (
    alternate_closed_form,
    certify_eigenpair,
    minimum_energy,
    xi_factors,
)
from .brackets import (
    build_R,
    build_hw_matrix,
    export_triplets,
    hw_dimension,
    hw_gram_lowest,
)
from .operators import (
    Anisotropy,
    BoundaryCondition,
    build_momentum_block,
    build_reduced_kernel,
    build_sector_hamiltonian,
)
from .sector_basis import DimensionGuardError
from .spectra import (
    ConvergenceError,
    check_dense_dim,
    fit_limit,
    kernel_lowest,
    kernel_mirrored,
    lowest,
)
from .verify import SUITES

SCAN_SCHEMA = "xxzdroplet.scan/1"
VERIFY_SCHEMA = "xxzdroplet.verify/1"
CSV_HEADER = "bc,L,n,q,delta,theta_or_k,energy,method,residual,seconds"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_SOLVER = 4


@dataclass
class ScanRecord:
    """One energy observation; fields mirror the CSV columns."""

    bc: str
    L: int | None
    n: int
    q: float
    delta: float | None
    theta_or_k: float | None
    energy: float | None
    method: str
    residual: float | None
    seconds: float | None


def _sort_key(r: ScanRecord):
    big = math.inf
    return (
        r.bc,
        r.L if r.L is not None else big,
        r.n,
        r.theta_or_k if r.theta_or_k is not None else big,
        r.method,
    )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def records_to_csv(records: list[ScanRecord]) -> str:
    lines = [CSV_HEADER]
    for r in sorted(records, key=_sort_key):
        lines.append(
            ",".join(
                (
                    r.bc,
                    _fmt(r.L),
                    _fmt(r.n),
                    _fmt(r.q),
                    _fmt(r.delta),
                    _fmt(r.theta_or_k),
                    _fmt(r.energy),
                    r.method,
                    _fmt(r.residual),
                    _fmt(r.seconds),
                )
            )
        )
    return "\n".join(lines) + "\n"


def records_to_json(records: list[ScanRecord], command: str) -> str:
    doc = {
        "schema": SCAN_SCHEMA,
        "command": command,
        "records": [asdict(r) for r in sorted(records, key=_sort_key)],
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_records(records, args, command) -> None:
    if args.format == "json":
        _emit(records_to_json(records, command), args.out)
    else:
        _emit(records_to_csv(records), args.out)


def _make_bc(tag: str, delta: float | None) -> BoundaryCondition:
    if tag == "droplet":
        if delta is None:
            raise ValueError("droplet boundary needs --delta")
        return BoundaryCondition.droplet(delta)
    if delta is not None:
        raise ValueError(f"--delta is only meaningful with droplet, not {tag}")
    return BoundaryCondition(tag)


# ---------------------------------------------------------------- drivers


def sector_records(
    bc_tag: str,
    delta: float | None,
    L: int,
    n: int,
    q: float,
    k: int = 4,
    momentum: int | None = None,
) -> list[ScanRecord]:
    """Lowest k levels of one sector, or of one momentum block of the ring.

    Both are solved by ``lowest``; block rows carry the momentum index
    in ``theta_or_k`` and a ``momentum-`` prefix on the method.  The
    k = 1 sector ground state of an open, droplet or cyclic chain is
    solved on its reflection-even block, with the method of the full
    sector.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if momentum is not None and bc_tag != "cyclic":
        raise ValueError("--momentum requires --bc cyclic")
    a = Anisotropy(q)
    t0 = time.perf_counter()
    bc = _make_bc(bc_tag, delta)
    if momentum is None:
        op, _ = build_sector_hamiltonian(L, n, bc, a)
        prefix, index = "", None
    else:
        op = build_momentum_block(L, n, momentum, a)
        prefix, index = "momentum-", float(momentum)
    res = lowest(op, k)
    residuals = res.residuals
    seconds = time.perf_counter() - t0
    return [
        ScanRecord(
            bc_tag, L, n, q, delta, index,
            float(e), prefix + res.method, float(r), seconds,
        )
        for e, r in zip(res.values, residuals)
    ]


def hw_records(
    L: int, n: int, q: float, method: str = "gram", k: int = 1
) -> list[ScanRecord]:
    """Kink-chain E(L, n) rows by the Gram route (``gram-lanczos``,
    ``hw_gram_lowest``), the bracket route (``bracket-dense``), or both."""
    if method not in ("gram", "direct", "both"):
        raise ValueError(f"unknown method {method!r}: need gram, direct or both")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if 2 * n > L:
        # every route refuses before anything is built
        raise ValueError(f"empty highest-weight space for L={L}, n={n}")
    a = Anisotropy(q)
    records = []
    if method in ("gram", "both"):
        t0 = time.perf_counter()
        res = hw_gram_lowest(L, n, a, k=k)
        seconds = time.perf_counter() - t0
        for e, r in zip(res.values, res.residuals):
            records.append(
                ScanRecord(
                    "kink", L, n, q, None, None,
                    float(e), res.method, float(r), seconds,
                )
            )
    if method in ("direct", "both"):
        t0 = time.perf_counter()
        # the bracket matrix is not symmetric, so it is solved densely;
        # refuse before its sector is enumerated
        check_dense_dim(hw_dimension(L, n), "dense")
        op, _ = build_hw_matrix(L, n, a)
        res = lowest(op, k)
        residuals = res.residuals
        seconds = time.perf_counter() - t0
        for e, r in zip(res.values, residuals):
            records.append(
                ScanRecord(
                    "kink", L, n, q, None, None,
                    float(e), "bracket-dense", float(r), seconds,
                )
            )
    return records


def theta_grid(n: int, steps: int) -> list[float]:
    """``steps`` evenly spaced points inside the open cell (-pi/n, pi/n).

    Point i is the integer 2i + 1 - steps times half the spacing,
    pi / (n (steps + 1)), so point steps - 1 - i is exactly minus point
    i and the centre of an odd grid is exactly 0.0.
    """
    half = math.pi / (n * (steps + 1))
    return [m * half for m in range(1 - steps, steps, 2)]


def dispersion_records(
    n: int, q: float, theta_steps: int, n_max: int, gap: bool = False
) -> list[ScanRecord]:
    """Grid rows over the open momentum cell (-pi/n, pi/n).

    Per theta: the certified closed-form energy (residual column holds
    the global Bethe-vector residual), the truncated-kernel ground
    (and first excited with ``gap``), and the alternative explicit
    formula with its deviation from the certified value as residual.
    A ground-state solve started from the Bethe vector (``kernel_lowest``
    above the dense crossover) carries that vector's certificate, taken
    from its own product; every other point, mirrored ones included, is
    certified here.
    The grid is antisymmetric (``theta_grid``) and the kernel's real
    form at -theta is its real form at theta permuted by the gap
    reversal, so each +-theta pair is solved once, at its negative
    point, and mirrored to the other (``kernel_mirrored``); a
    mirrored point's seconds cover its own build, certification and
    residual, not the shared solve.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if theta_steps < 1:
        raise ValueError(f"need theta-steps >= 1, got {theta_steps}")
    a = Anisotropy(q)
    if q == 1.0:
        # the closed form needs q < 1: refused before any kernel is built
        raise ValueError(f"need 0 < q < 1, got q={q}")
    grid = theta_grid(n, theta_steps)
    records = []
    for i in range((theta_steps + 1) // 2):
        res = None
        for point in sorted({i, theta_steps - 1 - i}):
            theta = grid[point]
            t0 = time.perf_counter()
            kernel = build_reduced_kernel(n, theta, a, n_max)
            if res is None:
                res = kernel_lowest(kernel, 2 if gap else 1)
            else:
                res = kernel_mirrored(kernel, res)
            report = res.certificate or certify_eigenpair(
                xi_factors(q, n, theta), kernel
            )
            residuals = res.residuals
            seconds = time.perf_counter() - t0
            records.append(
                ScanRecord(
                    "infinite", None, n, q, None, theta,
                    report.energy, "closed-form", report.global_residual,
                    seconds,
                )
            )
            records.append(
                ScanRecord(
                    "infinite", None, n, q, None, theta,
                    float(res.values[0]), "kernel-" + res.method,
                    float(residuals[0]), seconds,
                )
            )
            if gap and len(res.values) > 1:
                records.append(
                    ScanRecord(
                        "infinite", None, n, q, None, theta,
                        float(res.values[1]), "kernel-excited",
                        float(residuals[1]), seconds,
                    )
                )
            alt = alternate_closed_form(q, n, theta)
            records.append(
                ScanRecord(
                    "infinite", None, n, q, None, theta,
                    alt, "alternate-form", abs(alt - report.energy), seconds,
                )
            )
    return records


def scan_records(
    bc_tag: str,
    delta: float | None,
    n: int,
    q: float,
    L_min: int,
    L_max: int,
    L_step: int = 1,
) -> list[ScanRecord]:
    """Energy vs L, the fitted limit, the target, and a monotone flag.

    Each point is the row ``hw-spectrum`` reports for kink chains (the
    highest-weight ground: the full sector ground is identically 0
    there), and the row ``sector-spectrum --k 1`` reports for other
    boundaries.  Appended summary rows carry L = None:
    ``aitken-limit`` (fitted limit, shift residual), ``closed-form-target``
    (the infinite-volume value, residual = |limit - target| when both
    exist) and ``monotone-flag`` (energy 1.0 when the column is strictly
    decreasing, else 0.0).
    """
    if L_step < 1:
        raise ValueError(f"need L-step >= 1, got {L_step}")
    lo = max(L_min, 2 * n if bc_tag == "kink" else max(n, 1))
    Ls = list(range(lo, L_max + 1, L_step))
    if not Ls:
        raise ValueError(f"empty L range [{lo}, {L_max}] step {L_step}")
    _make_bc(bc_tag, delta)  # kink points never build one, so check here
    target = None
    if bc_tag in ("kink", "droplet", "cyclic"):
        # needs 0 < q < 1, so q = 1 is refused before any point is built
        target = minimum_energy(q, n)
    if bc_tag == "kink":
        records = [hw_records(L, n, q)[0] for L in Ls]
    else:
        records = [sector_records(bc_tag, delta, L, n, q, k=1)[0] for L in Ls]

    energies = [r.energy for r in records]
    strictly_decreasing = all(b < a for a, b in zip(energies, energies[1:]))
    fit = None
    if len(records) >= 3:
        fit = fit_limit([(r.L, r.energy) for r in records])
    limit, fit_residual = fit or (None, None)
    records.append(
        ScanRecord(
            bc_tag, None, n, q, delta, None,
            limit, "aitken-limit", fit_residual, None,
        )
    )
    if target is not None:
        records.append(
            ScanRecord(
                bc_tag, None, n, q, delta, None,
                target, "closed-form-target",
                abs(limit - target) if limit is not None else None, None,
            )
        )
    records.append(
        ScanRecord(
            bc_tag, None, n, q, delta, None,
            1.0 if strictly_decreasing else 0.0, "monotone-flag", None, None,
        )
    )
    return records


# ------------------------------------------------------------------ main


def _read_config(path: str) -> list[str]:
    """Flat key = value file -> argv tokens; booleans toggle bare flags."""
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line needs key = value: {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("_", "-")
            val = val.strip()
            if not key:
                raise ValueError(f"empty key in config line {raw.rstrip()!r}")
            if val.lower() in ("true", "yes", "on"):
                tokens.append(f"--{key}")
            elif val.lower() in ("false", "no", "off"):
                continue
            else:
                tokens.extend((f"--{key}", val))
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in right after the subcommand.

    Explicit flags appear later on the command line, so argparse lets
    them win on conflict.
    """
    out = []
    expansions = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                out.append(tok)
                i += 1
                continue
            expansions += _read_config(argv[i + 1])
            i += 2
        elif tok.startswith("--config="):
            expansions += _read_config(tok.split("=", 1)[1])
            i += 1
        else:
            out.append(tok)
            i += 1
    if expansions:
        at = 1 if out and not out[0].startswith("-") else 0
        out[at:at] = expansions
    return out


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write report here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--config",
        default=None,
        help="flat key=value file mirroring the flags (flags win)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="xxzdroplet",
        description="droplet spectra of the ferromagnetic XXZ chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "sector-spectrum", help="lowest eigenvalues of one magnetization sector"
    )
    p.add_argument("--bc", required=True, choices=("open", "kink", "droplet", "cyclic"))
    p.add_argument("--L", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--momentum", type=int, default=None,
                   help="single momentum block (cyclic only)")
    p.add_argument("--k", type=int, default=4, help="how many eigenvalues")
    _add_output_flags(p)
    p.set_defaults(func=_run_sector_spectrum)

    p = sub.add_parser(
        "hw-spectrum", help="kink-chain energy over the highest-weight subspace"
    )
    p.add_argument("--L", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--method", choices=("gram", "direct", "both"), default="gram")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--export-matrix", default=None, metavar="DIR",
                   help="dump bracket matrix and intertwiner as triplet files")
    _add_output_flags(p)
    p.set_defaults(func=_run_hw_spectrum)

    p = sub.add_parser(
        "dispersion", help="droplet dispersion across the momentum cell"
    )
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--theta-steps", required=True, type=int)
    p.add_argument("--nmax", required=True, type=int)
    p.add_argument("--gap", action="store_true",
                   help="also report the first excited kernel eigenvalue")
    _add_output_flags(p)
    p.set_defaults(func=_run_dispersion)

    p = sub.add_parser(
        "scan-convergence", help="energy vs chain length with fitted limit"
    )
    p.add_argument("--bc", required=True, choices=("open", "kink", "droplet", "cyclic"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--L-min", required=True, type=int)
    p.add_argument("--L-max", required=True, type=int)
    p.add_argument("--L-step", type=int, default=1)
    p.add_argument("--delta", type=float, default=None)
    _add_output_flags(p)
    p.set_defaults(func=_run_scan)

    p = sub.add_parser("verify", help="invariant batteries, JSON verdict")
    p.add_argument("--suite", required=True,
                   choices=(*SUITES, "all"))
    p.add_argument("--max-L", type=int, default=10)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None,
                   help="flat key=value file mirroring the flags (flags win)")
    p.set_defaults(func=_run_verify)

    return parser


def _run_sector_spectrum(args) -> int:
    records = sector_records(
        args.bc, args.delta, args.L, args.n, args.q,
        k=args.k, momentum=args.momentum,
    )
    _emit_records(records, args, "sector-spectrum")
    return EXIT_OK


def _run_hw_spectrum(args) -> int:
    records = hw_records(args.L, args.n, args.q, method=args.method, k=args.k)
    if args.export_matrix:
        outdir = Path(args.export_matrix)
        outdir.mkdir(parents=True, exist_ok=True)
        a = Anisotropy(args.q)
        hw_op, _ = build_hw_matrix(args.L, args.n, a)
        rmap, _, _ = build_R(args.L, args.n, a)
        export_triplets(hw_op, outdir / f"hw_L{args.L}_n{args.n}.txt")
        export_triplets(rmap, outdir / f"rmap_L{args.L}_n{args.n}.txt")
    _emit_records(records, args, "hw-spectrum")
    return EXIT_OK


def _run_dispersion(args) -> int:
    records = dispersion_records(
        args.n, args.q, args.theta_steps, args.nmax, gap=args.gap
    )
    _emit_records(records, args, "dispersion")
    return EXIT_OK


def _run_scan(args) -> int:
    records = scan_records(
        args.bc, args.delta, args.n, args.q,
        args.L_min, args.L_max, L_step=args.L_step,
    )
    _emit_records(records, args, "scan-convergence")
    return EXIT_OK


def _run_verify(args) -> int:
    if args.max_L < 2:
        raise ValueError(f"--max-L must be at least 2, got {args.max_L}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(SUITES[name](args.max_L, args.seed))
    passed = all(c.passed for c in checks)
    doc = {
        "schema": VERIFY_SCHEMA,
        "suites": names,
        "max_L": args.max_L,
        "seed": args.seed,
        "passed": passed,
        "checks": [asdict(c) for c in checks],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _expand_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
