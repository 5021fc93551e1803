"""Command-line surface: formats, exit codes, config files, determinism,
and the documented examples."""

import ast
import importlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sector_oracle as oracle
from kernel_oracle import reversal
import xxzdroplet.cli as cli
from xxzdroplet import brackets, spectra, verify
from xxzdroplet.cli import (
    CSV_HEADER,
    ScanRecord,
    main,
    records_to_csv,
    records_to_json,
)
from xxzdroplet.operators import (
    Anisotropy,
    BoundaryCondition,
    SparseOperator,
    build_momentum_block,
    build_reduced_kernel,
    build_sector_hamiltonian,
    even_block,
)

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"
README = (ROOT / "README.md").read_text()
README_COMMANDS = re.findall(r"^xxzdroplet (.+)$", README, re.MULTILINE)

# every check `verify --suite all --max-L 6` runs, in order
SECTORS_L6 = ["L2-n1", "L3-n1", "L4-n1", "L4-n2", "L5-n1", "L5-n2",
              "L6-n1", "L6-n2", "L6-n3"]
VERIFY_ALL_L6 = (
    [f"tl-relations-q0.5-{s}" for s in SECTORS_L6] + ["kink-bond-projector-q0.5"]
    + [f"tl-relations-q0.9-{s}" for s in SECTORS_L6] + ["kink-bond-projector-q0.9"]
    + [f"rmap-q0.5-{s}" for s in SECTORS_L6] + ["ladder-commute-q0.5-L6"]
    + [f"rmap-q0.8-{s}" for s in SECTORS_L6] + ["ladder-commute-q0.8-L6"]
    + ["pf-droplet-q0.5-n1-nmax40", "pf-droplet-q0.5-n2-nmax110",
       "pf-droplet-q0.5-n3-nmax68", "pf-droplet-q0.3-n2-nmax40"]
    + ["wielandt-random-kernels", "wielandt-truncation-n2", "wielandt-truncation-n3"]
    + ["kernel-truncation-monotone-n2"] * 2 + ["kernel-truncation-monotone-n3"] * 2
    + ["kink-monotone-n1", "kink-monotone-n2"]
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_records_to_csv_header_sorting_and_blanks():
    records = [
        ScanRecord("kink", None, 1, 0.5, None, None, 0.25, "aitken-limit", None, None),
        ScanRecord("kink", 4, 1, 0.5, None, None, 0.5, "gram-lanczos", 1e-16, 0.01),
        ScanRecord("kink", 2, 1, 0.5, None, None, 1.0, "gram-lanczos", 1e-16, 0.01),
    ]
    text = records_to_csv(records)
    rows = parse_csv(text)
    # rows sort by L with summary rows (blank L) last
    assert [r[1] for r in rows] == ["2", "4", ""]
    assert rows[0][3] == "0.5"
    assert rows[2][8] == "" and rows[2][9] == ""
    assert rows[0][6] == "1"


def test_seventeen_digit_round_trip():
    value = 1.0 - math.cos(math.pi / 16) / 1.25
    rec = ScanRecord("kink", 16, 1, 0.5, None, None, value, "gram-lanczos", None, None)
    rows = parse_csv(records_to_csv([rec]))
    assert float(rows[0][6]) == value


def test_json_document_validates_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    records = [
        ScanRecord("cyclic", 8, 2, 0.5, None, None, 0.33, "dense", 1e-15, 0.1),
        ScanRecord("cyclic", None, 2, 0.5, None, None, None, "aitken-limit", None, None),
    ]
    doc = json.loads(records_to_json(records, "scan-convergence"))
    schema = json.loads((DOCS / "scan_record.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["schema"] == "xxzdroplet.scan/1"


def test_sector_spectrum_kink_two_site(capsys):
    code, out = run_cli(
        capsys, "sector-spectrum", "--bc", "kink", "--L", "2", "--n", "1",
        "--q", "0.5", "--k", "2",
    )
    assert code == 0
    rows = parse_csv(out)
    energies = sorted(float(r[6]) for r in rows)
    assert abs(energies[0]) < 1e-14 and abs(energies[1] - 1.0) < 1e-14
    assert {r[7] for r in rows} == {"dense"}


def test_sector_spectrum_momentum_block(capsys):
    code, out = run_cli(
        capsys, "sector-spectrum", "--bc", "cyclic", "--L", "8", "--n", "1",
        "--q", "0.5", "--momentum", "0", "--k", "1",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert abs(float(rows[0][6]) - 0.2) < 1e-12
    assert rows[0][5] == "0"


def test_momentum_requires_cyclic(capsys):
    code, _ = run_cli(
        capsys, "sector-spectrum", "--bc", "kink", "--L", "4", "--n", "1",
        "--q", "0.5", "--momentum", "0",
    )
    assert code == 2


def test_droplet_requires_delta(capsys):
    code, _ = run_cli(
        capsys, "sector-spectrum", "--bc", "droplet", "--L", "4", "--n", "1",
        "--q", "0.5",
    )
    assert code == 2


def test_dimension_guard_exit_code(capsys):
    code, _ = run_cli(
        capsys, "sector-spectrum", "--bc", "open", "--L", "40", "--n", "20",
        "--q", "0.5",
    )
    assert code == 3


def test_hw_gram_route_never_meets_dense_guard(monkeypatch):
    # the Gram route densifies nothing, so a dense guard below its hw
    # dimension (20 at L = 8, n = 2) does not stop it
    def refuse(self):
        raise AssertionError("densified")

    monkeypatch.setattr(spectra, "DENSE_GUARD", 3)
    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    res = cli.hw_gram_lowest(8, 2, Anisotropy(0.5))
    assert res.method == "gram-lanczos"


def test_hw_direct_guard_trips_before_building(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("bracket matrix built before the guard")

    monkeypatch.setattr(cli, "build_hw_matrix", refuse)
    code = main(["hw-spectrum", "--L", "20", "--n", "5", "--q", "0.5",
                 "--method", "direct"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "dense path refuses dim 10659 > 4000" in captured.err


def test_hw_gram_guard_trips_before_building(monkeypatch, capsys):
    # the highest-weight dimension is known before any state is
    # enumerated: the intertwiner, 389,367 columns of 2^8 entries, meets
    # DIMENSION_GUARD
    def refuse(*args):
        raise AssertionError("sector enumerated before the guard")

    monkeypatch.setattr(brackets, "enumerate_sector", refuse)
    monkeypatch.setattr(brackets, "build_sector_hamiltonian", refuse)
    code = main(["hw-spectrum", "--L", "24", "--n", "8", "--q", "0.5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "intertwiner (L=24, n=8) has 99677952 entries > 5000000" in captured.err


def test_empty_highest_weight_space_exit_code(tmp_path, capsys):
    # n > L/2 has no brackets; a small sector must fail fast, not expand 2^n
    for extra in ((), ("--export-matrix", str(tmp_path))):
        code, _ = run_cli(
            capsys, "hw-spectrum", "--L", "40", "--n", "38", "--q", "0.5", *extra
        )
        assert code == 2


@pytest.mark.parametrize("method", ["gram", "direct", "both"])
def test_empty_highest_weight_space_refused_before_building(
    monkeypatch, capsys, method
):
    # every route refuses n > L/2 with exit 2 before anything is built
    def refuse(*args, **kwargs):
        raise AssertionError("built for an empty highest-weight space")

    for name in ("build_hw_matrix", "hw_gram_lowest"):
        monkeypatch.setattr(cli, name, refuse)
    code = main(["hw-spectrum", "--L", "5", "--n", "3", "--q", "0.5",
                 "--method", method])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "empty highest-weight space for L=5, n=3" in captured.err


def test_hw_records_refuses_an_unknown_method(monkeypatch):
    # a method outside gram, direct and both is refused before anything
    # is built, rather than returning no rows for a caller to index
    def refuse(*args, **kwargs):
        raise AssertionError("built for an unknown method")

    for name in ("build_hw_matrix", "hw_gram_lowest"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(ValueError, match="'dense': need gram, direct or both"):
        cli.hw_records(8, 2, 0.5, method="dense")


def test_out_of_memory_exit_code(monkeypatch, capsys):
    # an allocation the system refuses is exit 3, like a dimension guard
    def refuse(*args):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "build_sector_hamiltonian", refuse)
    code = main(["sector-spectrum", "--bc", "open", "--L", "8", "--n", "2",
                 "--q", "0.5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "error: out of memory: Unable to allocate 8.00 TiB for an array\n"
    )


def test_unwritable_out_exit_code(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.csv"
    code = main(
        ["sector-spectrum", "--bc", "open", "--L", "4", "--n", "1", "--q", "0.5",
         "--out", str(missing)]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "no-such-dir" in captured.err


def test_solver_failure_exit_code(monkeypatch, capsys):
    def fail(op, k):
        raise cli.ConvergenceError(
            "lanczos did not converge in 300 iterations; best values [0.25]",
            values=np.array([0.25]),
        )

    monkeypatch.setattr(cli, "lowest", fail)
    code = main(
        ["sector-spectrum", "--bc", "open", "--L", "4", "--n", "1", "--q", "0.5"]
    )
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "best values [0.25]" in captured.err


def test_block_solver_cap_exit_code(monkeypatch, capsys):
    # an excited-level solve above the crossover (open L = 13, n = 4,
    # dim 715) whose first level reaches its per-level cap exits 4 with
    # the level, its best values and bounds
    monkeypatch.setattr(spectra, "LANCZOS_MAXITER", 5)
    code = main(["sector-spectrum", "--bc", "open", "--L", "13", "--n", "4",
                 "--q", "0.5", "--k", "4"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "level 0 of k = 4" in captured.err
    assert "did not converge in 5 iterations" in captured.err
    assert "best values" in captured.err and "bounds" in captured.err


# the four lowest levels at q = 0.5 above the old dense limit, from an
# independent sparse solver (scipy's eigsh from a random start); a single
# all-ones Lanczos start missed the odd and the repeated ones
LOW_LEVELS = {
    ("cyclic", None): (0.5794089423, 0.5813940654, 0.5813940654, 0.5864859000),
    ("open", None): (0.2998529662, 0.2998529662, 0.4755479505, 0.4755479552),
    ("kink", None): (0.0, 0.2153717757, 0.2608963740, 0.3348243102),
    ("cyclic", 0): (0.5949748543, 0.7897701995, 0.8879659435, 0.8879659435),
    ("cyclic", 10): (0.6049465872, 0.8098212238, 0.9024172467, 0.9024172467),
}


@pytest.mark.parametrize(
    "bc, momentum", list(LOW_LEVELS), ids=lambda v: str(v)
)
def test_sector_spectrum_reports_every_low_level(capsys, bc, momentum):
    # sectors at L = 16, n = 6 (dim 8,008) and momentum blocks at L = 20,
    # n = 8 (dims 6,310 and 6,308), with the default --k 4
    if momentum is None:
        argv = ["--bc", bc, "--L", "16", "--n", "6"]
    else:
        argv = ["--bc", bc, "--L", "20", "--n", "8", "--momentum", str(momentum)]
    code, out = run_cli(capsys, "sector-spectrum", *argv, "--q", "0.5")
    assert code == 0
    rows = parse_csv(out)
    prefix = "" if momentum is None else "momentum-"
    assert {r[7] for r in rows} == {prefix + "lanczos"}
    energies = np.array([float(r[6]) for r in rows])
    assert np.abs(energies - LOW_LEVELS[bc, momentum]).max() <= 1e-7


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sector-spectrum", "--bc", "moebius", "--L", "4", "--n", "1", "--q", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_hw_spectrum_both_routes_and_export(tmp_path, capsys):
    outdir = tmp_path / "mats"
    code, out = run_cli(
        capsys, "hw-spectrum", "--L", "6", "--n", "2", "--q", "0.5",
        "--method", "both", "--export-matrix", str(outdir),
    )
    assert code == 0
    rows = parse_csv(out)
    by_method = {r[7]: float(r[6]) for r in rows}
    assert abs(by_method["gram-lanczos"] - by_method["bracket-dense"]) < 1e-13
    for name, shape in (("hw_L6_n2.txt", (9, 9)), ("rmap_L6_n2.txt", (15, 9))):
        path = outdir / name
        rows, cols, nnz = map(int, path.read_text().split("\n", 1)[0].split())
        assert (rows, cols) == shape
        i, j, _ = np.loadtxt(path, skiprows=1, unpack=True)
        assert len(i) == nnz and i.max() < rows and j.max() < cols


def test_dispersion_emits_discrepancy_rows(capsys):
    code, out = run_cli(
        capsys, "dispersion", "--q", "0.5", "--n", "1", "--theta-steps", "3",
        "--nmax", "5",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9
    at_edge = [r for r in rows if abs(float(r[5]) - math.pi / 2) < 1e-12]
    vals = {r[7]: (float(r[6]), float(r[8])) for r in at_edge}
    assert abs(vals["closed-form"][0] - 1.0) < 1e-12
    assert abs(vals["alternate-form"][0] - 1.8) < 1e-12
    assert abs(vals["alternate-form"][1] - 0.8) < 1e-12
    assert abs(vals["kernel-dense"][0] - 1.0) < 1e-12


def test_dispersion_gap_at_zone_center_uses_full_kernel(capsys):
    # theta = 0 with --gap asks for two levels; the first excited one may
    # be reversal-odd, so both come from the full kernel
    code, out = run_cli(
        capsys, "dispersion", "--q", "0.5", "--n", "3", "--theta-steps", "1",
        "--nmax", "20", "--gap",
    )
    assert code == 0
    vals = {r[7]: float(r[6]) for r in parse_csv(out)}
    kernel = build_reduced_kernel(3, 0.0, Anisotropy(0.5), 20)
    full = spectra.dense_spectrum(kernel.to_csr(), k=2).values
    assert vals["kernel-dense"] == full[0]
    assert vals["kernel-excited"] == full[1]


def test_theta_grid_is_exactly_antisymmetric():
    # linspace put 132 of these odd grids' centres up to 4.4e-16 off 0, which
    # skipped the theta = 0 paths; the grid moves by at most 1.2e-15
    for n in range(1, 9):
        for steps in range(1, 400):
            grid = np.array(cli.theta_grid(n, steps))
            assert np.array_equal(grid, -grid[::-1])
            if steps % 2:
                centre = grid[steps // 2]
                assert centre == 0.0 and math.copysign(1.0, centre) == 1.0
            assert np.all(np.diff(grid) > 0) and abs(grid[0]) < math.pi / n
            old = np.linspace(-math.pi / n, math.pi / n, steps + 2)[1:-1]
            assert np.abs(grid - old).max() <= 1.2e-15


def test_dispersion_odd_grid_centre_is_zero(capsys):
    code, out = run_cli(
        capsys, "dispersion", "--q", "0.5", "--n", "5", "--theta-steps", "37",
        "--nmax", "3",
    )
    assert code == 0
    rows = parse_csv(out)
    centre = [r for r in rows if r[5] == "0"]
    assert {r[7] for r in centre} == {"closed-form", "kernel-dense", "alternate-form"}
    thetas = sorted({float(r[5]) for r in rows})
    assert len(thetas) == 37 and thetas == [-t for t in reversed(thetas)]


@pytest.mark.parametrize("route", ("dense", "lanczos"))
@pytest.mark.parametrize("gap", (False, True))
def test_dispersion_solves_each_mirror_pair_once(
    monkeypatch, crossover, route, gap
):
    # each +-theta pair is solved at its negative point and mirrored by
    # the gap reversal: every row matches an independent solve at its own
    # theta, and a mirrored row's residual is taken on its own kernel
    if route == "lanczos":
        crossover(1)
    solve = spectra.kernel_lowest
    solved = []

    def counted(kernel, k):
        solved.append(kernel.theta)
        return solve(kernel, k)

    monkeypatch.setattr(cli, "kernel_lowest", counted)
    a, q, n_max, k = Anisotropy(0.5), 0.5, 5, 2 if gap else 1
    for n in (1, 2, 3, 4):
        for steps in (1, 2, 3, 4):
            solved.clear()
            records = cli.dispersion_records(n, q, steps, n_max, gap=gap)
            grid = cli.theta_grid(n, steps)
            assert solved == [t for t in grid if t <= 0.0]
            assert len(solved) == -(-steps // 2)
            for theta in grid:
                kernel = build_reduced_kernel(n, theta, a, n_max)
                own = solve(kernel, k)
                rows = [
                    r for r in records
                    if r.theta_or_k == theta and r.method.startswith("kernel-")
                ]
                # (an n = 1 kernel has one level)
                assert [r.method for r in rows] == [
                    "kernel-" + own.method, "kernel-excited"
                ][: len(own.values)]
                energies = np.array([r.energy for r in rows])
                assert np.abs(energies - own.values).max() <= 1e-12
                if theta <= 0.0:
                    continue
                # R v of the pairs solved at -theta, on this theta's kernel
                pairs = solve(build_reduced_kernel(n, -theta, a, n_max), k)
                vectors = pairs.vectors[reversal(n, n_max)]
                residuals = np.linalg.norm(
                    kernel @ vectors - vectors * pairs.values, axis=0
                )
                assert [r.residual for r in rows] == residuals.tolist()


@pytest.mark.parametrize(
    "flag, value",
    [("--n", "0"), ("--n", "-2"), ("--theta-steps", "0"), ("--theta-steps", "-1")],
)
def test_dispersion_rejects_bad_counts(monkeypatch, capsys, flag, value):
    # a usage error before any point is solved, not a traceback or a
    # header with no rows
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "xi_factors", refuse)
    monkeypatch.setattr(cli, "build_reduced_kernel", refuse)
    args = {"--q": "0.5", "--n": "2", "--theta-steps": "3", "--nmax": "5"}
    args[flag] = value
    code = main(["dispersion", *(t for pair in args.items() for t in pair)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{flag[2:]} >= 1" in captured.err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["hw-spectrum", "--L", "8", "--n", "2", "--q", "0.5", "--method", "both"],
        ["sector-spectrum", "--bc", "kink", "--L", "8", "--n", "2", "--q", "0.5"],
        ["sector-spectrum", "--bc", "cyclic", "--L", "8", "--n", "2", "--q", "0.5",
         "--momentum", "0"],
    ],
    ids=["hw-spectrum", "sector-spectrum", "sector-spectrum-momentum"],
)
def test_spectrum_rejects_k_below_one(monkeypatch, capsys, argv, value):
    # a usage error before any operator is built, not a header alone or
    # every level but the last
    def refuse(*args):
        raise AssertionError("work started")

    for name in ("build_R", "build_hw_matrix", "hw_gram_lowest",
                 "build_sector_hamiltonian", "build_momentum_block"):
        monkeypatch.setattr(cli, name, refuse)
    code = main([*argv, "--k", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"need k >= 1, got {value}" in captured.err


def test_momentum_block_rejects_delta(monkeypatch, capsys):
    # a usage error before any operator is built, as without --momentum
    def refuse(*args):
        raise AssertionError("work started")

    for name in ("build_sector_hamiltonian", "build_momentum_block"):
        monkeypatch.setattr(cli, name, refuse)
    code = main(["sector-spectrum", "--bc", "cyclic", "--L", "8", "--n", "2",
                 "--q", "0.5", "--momentum", "1", "--delta", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--delta is only meaningful with droplet" in captured.err


def test_momentum_rows_go_through_lowest(crossover, capsys):
    # blocks above the crossover run Lanczos, and agree with the
    # dense rows of the same blocks
    a = Anisotropy(0.5)
    argv = ["sector-spectrum", "--bc", "cyclic", "--L", "12", "--n", "4",
            "--q", "0.5", "--k", "3", "--momentum"]
    dense_rows = [parse_csv(run_cli(capsys, *argv, str(k))[1]) for k in range(12)]
    crossover(8)
    for k, dense in enumerate(dense_rows):
        iterative = parse_csv(run_cli(capsys, *argv, str(k))[1])
        assert {r[7] for r in dense} == {"momentum-dense"}
        assert {r[7] for r in iterative} == {"momentum-lanczos"}
        scale = build_momentum_block(12, 4, k, a).rowsum_norm()
        for d, i in zip(dense, iterative):
            assert d[:6] == i[:6]
            assert abs(float(d[6]) - float(i[6])) <= 1e-9 * scale
            assert float(i[8]) <= 1e-9 * scale
    code, out = run_cli(capsys, "sector-spectrum", "--bc", "cyclic", "--L", "19",
                        "--n", "9", "--q", "0.5", "--momentum", "1", "--k", "1")
    assert code == 0
    [row] = parse_csv(out)
    assert row[5] == "1" and row[7] == "momentum-lanczos"


def test_scan_convergence_kink(capsys):
    code, out = run_cli(
        capsys, "scan-convergence", "--bc", "kink", "--n", "1", "--q", "0.5",
        "--L-min", "2", "--L-max", "10",
    )
    assert code == 0
    rows = parse_csv(out)
    data = [r for r in rows if r[1] != ""]
    energies = [float(r[6]) for r in data]
    assert [int(r[1]) for r in data] == list(range(2, 11))
    assert all(b < a for a, b in zip(energies, energies[1:]))
    summary = {r[7]: r for r in rows if r[1] == ""}
    assert abs(float(summary["closed-form-target"][6]) - 0.2) < 1e-14
    assert float(summary["monotone-flag"][6]) == 1.0
    limit = float(summary["aitken-limit"][6])
    assert abs(limit - 0.2) < 5e-3


@pytest.mark.parametrize(
    "boundary, point",
    [
        (["--bc", "kink"], ["hw-spectrum"]),
        (
            ["--bc", "droplet", "--delta", "1.0"],
            ["sector-spectrum", "--bc", "droplet", "--delta", "1.0", "--k", "1"],
        ),
        (["--bc", "open"], ["sector-spectrum", "--bc", "open", "--k", "1"]),
    ],
    ids=["kink", "droplet", "open"],
)
def test_scan_points_are_spectrum_rows(capsys, boundary, point):
    # each scan point is the row the single-point command reports, every
    # column but the wall time equal
    _, out = run_cli(
        capsys, "scan-convergence", *boundary, "--n", "2", "--q", "0.4",
        "--L-min", "4", "--L-max", "9",
    )
    data = [r for r in parse_csv(out) if r[1] != ""]
    assert [int(r[1]) for r in data] == list(range(4, 10))
    for row in data:
        _, single = run_cli(
            capsys, *point, "--L", row[1], "--n", "2", "--q", "0.4",
        )
        assert [r[:9] for r in parse_csv(single)] == [row[:9]]


@pytest.mark.parametrize(
    "bc, delta", [("open", None), ("droplet", 1.0), ("cyclic", None)]
)
def test_sector_ground_state_row_is_the_even_block_solve(bc, delta):
    # the k = 1 row is the even-block ground state, its residual taken
    # on the full sector operator, and its method the full sector's
    # (dim 4,368 > DENSE_CROSSOVER, block 2,184)
    op, _ = build_sector_hamiltonian(
        16, 5, BoundaryCondition(bc, delta), Anisotropy(0.5)
    )
    block, lift = even_block(op, oracle.site_reflection(16, 5))
    res = spectra.lanczos_lowest(block, k=1)
    vectors = lift @ res.vectors
    resid = np.linalg.norm(op.matrix @ vectors - vectors * res.values, axis=0)
    (row,) = cli.sector_records(bc, delta, 16, 5, 0.5, k=1)
    assert (row.energy, row.method, row.residual) == (
        res.values[0], "lanczos", resid[0]
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--bc", "kink", "--k", "1"],
        ["--bc", "open", "--k", "2"],
        ["--bc", "droplet", "--delta", "1.0", "--k", "4"],
        ["--bc", "cyclic", "--momentum", "0", "--k", "1"],
        ["--bc", "cyclic", "--momentum", "3", "--k", "1"],
    ],
)
def test_full_operator_routes_never_build_the_even_block(
    monkeypatch, capsys, argv
):
    # kink sectors, excited levels and momentum blocks keep the
    # full-operator solve
    def refuse(*args, **kwargs):
        raise AssertionError("even block built")

    monkeypatch.setattr(spectra, "even_block", refuse)
    code, out = run_cli(
        capsys, "sector-spectrum", *argv, "--L", "8", "--n", "3", "--q", "0.5"
    )
    assert code == 0 and len(parse_csv(out)) >= 1
    # the same patch does catch the even-block route
    with pytest.raises(AssertionError, match="even block built"):
        main(["sector-spectrum", "--bc", "open", "--k", "1",
              "--L", "8", "--n", "3", "--q", "0.5"])


@pytest.mark.parametrize("bc", ["kink", "droplet", "cyclic"])
def test_scan_refuses_q_one_before_building(monkeypatch, capsys, bc):
    # the closed-form target needs q < 1; no point is solved first
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("hw_gram_lowest", "build_sector_hamiltonian"):
        monkeypatch.setattr(cli, name, refuse)
    extra = ["--delta", "1.0"] if bc == "droplet" else []
    code = main(["scan-convergence", "--bc", bc, "--n", "2", "--q", "1",
                 "--L-min", "4", "--L-max", "8", *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "need 0 < q < 1" in captured.err


def test_dispersion_refuses_q_one_before_building(monkeypatch, capsys):
    # the closed form needs q < 1; no kernel is built or solved first
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "build_reduced_kernel", refuse)
    code = main(["dispersion", "--n", "4", "--q", "1", "--theta-steps", "1",
                 "--nmax", "80"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "need 0 < q < 1" in captured.err


def test_output_deterministic_except_seconds(capsys):
    args = ["sector-spectrum", "--bc", "cyclic", "--L", "8", "--n", "2", "--q", "0.3"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    rows1, rows2 = parse_csv(first), parse_csv(second)
    assert [r[:9] for r in rows1] == [r[:9] for r in rows2]


def test_dispersion_output_independent_of_blas_threads():
    # the theta = 0 point of n = 4 at n_max = 40 (dim 64,000, above the
    # size where OpenBLAS threads a dot product) settles on its Bethe
    # start: its closed-form and kernel rows come from one streamed pass
    # whose sums are numpy reductions, so they read the same whatever the
    # BLAS thread count.  So does a settled +-pi/12 pair at n_max = 60:
    # the mirrored +theta row's vector is the gap reversal of the -theta
    # pair's, which is divided by the streamed norm, and its residual is a
    # column norm, neither a BLAS call.  Each run is a fresh interpreter, since OpenBLAS reads its
    # thread count once, when it loads
    for steps, n_max in (("1", "40"), ("2", "60")):
        argv = ["dispersion", "--n", "4", "--q", "0.5", "--theta-steps", steps,
                "--nmax", n_max]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
            env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
            proc = subprocess.run(
                [sys.executable, "-m", "xxzdroplet.cli", *argv],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(
                [line.rsplit(",", 1)[0] for line in proc.stdout.splitlines()]
            )
        assert "kernel-lanczos" in "\n".join(outputs[0])
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n, n_max", [(3, 150), (2, 4500)])
def test_dispersion_off_centre_bethe_start_converges(capsys, n, n_max):
    # at q = 0.9 the cold and half-box starts of the theta != 0 ground
    # state (dims 22,500 and 4,500) reached Lanczos's cap; from the
    # real-form Bethe vector the command runs, and every kernel row lies
    # within the point's truncation error, the closed-form row's global
    # residual, of the closed form (up to rounding)
    code, out = run_cli(capsys, "dispersion", "--n", str(n), "--q", "0.9",
                        "--theta-steps", "4", "--nmax", str(n_max))
    assert code == 0
    rows = parse_csv(out)
    closed = {r[5]: (float(r[6]), float(r[8])) for r in rows if r[7] == "closed-form"}
    kernel = [(r[5], float(r[6])) for r in rows if r[7] == "kernel-lanczos"]
    assert len(kernel) == len(closed) == 4
    for theta, energy in kernel:
        target, residual = closed[theta]
        assert abs(energy - target) <= residual + 1e-14 * target


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out = run_cli(
        capsys, "sector-spectrum", "--bc", "open", "--L", "4", "--n", "1",
        "--q", "0.5", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith(CSV_HEADER)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# two-site kink chain\nbc = kink\nL = 2\nn = 1\nq = 0.9\n")
    code, out = run_cli(
        capsys, "sector-spectrum", "--config", str(cfg), "--q", "0.5",
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(r[3] == "0.5" for r in rows)


def test_config_boolean_and_underscore_keys(tmp_path, capsys):
    cfg = tmp_path / "disp.cfg"
    cfg.write_text("q = 0.5\nn = 2\ntheta_steps = 1\nnmax = 6\ngap = true\n")
    code, out = run_cli(capsys, "dispersion", "--config", str(cfg))
    assert code == 0
    rows = parse_csv(out)
    assert "kernel-excited" in {r[7] for r in rows}


def test_parser_is_built_once(capsys):
    # main reuses one parser per process, and a parse leaves nothing
    # behind: the call after a --gap run takes its own default again
    parser = cli._build_parser()
    methods = []
    for extra in (["--gap"], []):
        code, out = run_cli(
            capsys, "dispersion", "--q", "0.5", "--n", "2",
            "--theta-steps", "1", "--nmax", "6", *extra,
        )
        assert code == 0
        methods.append({r[7] for r in parse_csv(out)})
    assert "kernel-excited" in methods[0] and "kernel-excited" not in methods[1]
    assert cli._build_parser() is parser


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    code, _ = run_cli(capsys, "sector-spectrum", "--config", str(cfg))
    assert code == 2
    code, _ = run_cli(capsys, "sector-spectrum", "--config", str(tmp_path / "missing"))
    assert code == 2


def test_verify_suite_json_verdict(tmp_path, capsys):
    out_file = tmp_path / "verdict.json"
    code, _ = run_cli(
        capsys, "verify", "--suite", "pf", "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == "xxzdroplet.verify/1"
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    names = {c["name"] for c in doc["checks"]}
    assert any(name.startswith("pf-droplet") for name in names)


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(
        verify.SUITES,
        "tl",
        lambda max_L, seed: [verify.CheckResult("forced", False, "forced failure")],
    )
    code, out = run_cli(capsys, "verify", "--suite", "tl")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_verify_rejects_max_L_below_two(monkeypatch, capsys, value):
    # a usage error before any suite runs, not a passing verdict of the
    # few checks that need no chain
    def refuse(max_L, seed):
        raise AssertionError("a suite ran")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, refuse)
    code = main(["verify", "--suite", "all", "--max-L", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--max-L must be at least 2, got {value}" in captured.err


@pytest.mark.parametrize("suite, dim", [("tl", 1), ("rmaps", 2)])
def test_verify_guard_trips_before_densifying(monkeypatch, capsys, suite, dim):
    # each (L, n) is checked against the dense guard before its bracket
    # basis or intertwiner is densified; with the guard at 0 the first,
    # L = 2, n = 1, already trips it
    def refuse(self):
        raise AssertionError("densified before the guard")

    monkeypatch.setattr(spectra, "DENSE_GUARD", 0)
    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    code = main(["verify", "--suite", suite])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"dense path refuses dim {dim} > 0" in captured.err


def test_verify_mono_suite_small(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "mono", "--max-L", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_verify_all_check_inventory(capsys):
    # a suite moved or refactored must keep every check and its name
    assert len(VERIFY_ALL_L6) == 53
    code, out = run_cli(capsys, "verify", "--suite", "all", "--max-L", "6")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert doc["suites"] == ["tl", "rmaps", "pf", "wielandt", "mono"]
    assert [c["name"] for c in doc["checks"]] == VERIFY_ALL_L6


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_runs(command, tmp_path):
    assert main(shlex.split(command) + ["--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_text()


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_cli_and_verify_solve_through_lowest_only():
    # one sparse/dense dispatch: neither module holds another spectra
    # solver, and the even-block route is part of lowest
    solvers = [
        obj for name, obj in vars(spectra).items()
        if callable(obj) and getattr(obj, "__module__", None) == spectra.__name__
        and name.endswith(("lowest", "spectrum"))
    ]
    assert spectra.dense_spectrum in solvers and spectra.lanczos_lowest in solvers
    allowed = {"lowest", "kernel_lowest", "hw_gram_lowest", "check_dense_dim"}
    for module in (cli, verify):
        held = {
            name for name, obj in vars(module).items()
            if any(obj is solver for solver in solvers)
        }
        assert held <= allowed, module.__name__
    assert not hasattr(spectra, "even_lowest")


def test_private_cross_module_imports_only_fall():
    # no module of the package reaches into another's private names:
    # any ``from .module import _name`` fails here
    found = set()
    for path in sorted((ROOT / "src" / "xxzdroplet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert found == set()


def test_perfbench_span_names_still_bound(monkeypatch):
    # the benchmark's tracer wraps these names by attribute; only the
    # four it already lists as stale may be missing from the package.
    # spectra.generalized_lowest went with the dense Gram pencil; the
    # benchmark upkeep item (ROADMAP item 2) drops it from spans.py
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    unbound = {
        f"{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"xxzdroplet.{layer}"), name, None)
        )
    }
    assert unbound <= {
        "sector_basis.enumerate_gap_domain",
        "sector_basis.momentum_orbits",
        "brackets.su_q_generators",
        "spectra.generalized_lowest",
    }


# every route's method string, on both sides of the dense guard
EMITTED_METHODS = {
    "dense", "lanczos", "momentum-dense", "momentum-lanczos", "gram-lanczos",
    "bracket-dense", "closed-form", "kernel-dense", "kernel-lanczos",
    "kernel-excited", "alternate-form", "aitken-limit", "closed-form-target",
    "monotone-flag",
}


def test_every_emitted_method_is_documented(crossover, capsys):
    text = (DOCS / "output-formats.md").read_text()
    summary = text.split("### Summary rows", 1)[1].split("\n### ", 1)[0]
    table = text.split("### Methods", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\* `([a-z-]+)`", summary, re.MULTILINE))
    for cell in re.findall(r"^\| (.+?) \|", table, re.MULTILINE):
        documented.update(re.findall(r"`([a-z-]+)`", cell))

    def methods(*argv):
        assert main(list(argv)) == 0
        return {row[7] for row in parse_csv(capsys.readouterr().out)}

    spectrum = [
        ["sector-spectrum", "--bc", "open", "--L", "6", "--n", "2", "--q", "0.5"],
        ["sector-spectrum", "--bc", "open", "--L", "6", "--n", "2", "--q", "0.5",
         "--k", "1"],
        ["sector-spectrum", "--bc", "cyclic", "--L", "8", "--n", "3", "--q", "0.5",
         "--momentum", "0"],
        ["dispersion", "--n", "3", "--q", "0.5", "--theta-steps", "2",
         "--nmax", "4", "--gap"],
        ["hw-spectrum", "--L", "6", "--n", "2", "--q", "0.5", "--method", "both"],
    ]
    emitted = set()
    for argv in spectrum:
        emitted |= methods(*argv)
    emitted |= methods("scan-convergence", "--bc", "kink", "--n", "1", "--q", "0.5",
                       "--L-min", "2", "--L-max", "6")
    # the same spectra past a crossover of 4 go to Lanczos
    crossover(4)
    for argv in spectrum:
        emitted |= methods(*argv)
    assert emitted == EMITTED_METHODS
    assert emitted <= documented


def test_readme_module_table_lists_every_module():
    layout = README.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `xxzdroplet\.(\w+)` \|", layout, re.MULTILINE))
    modules = {p.stem for p in (ROOT / "src" / "xxzdroplet").glob("*.py")}
    assert listed == modules - {"__init__"}


def test_documented_config_example_runs(tmp_path):
    text = (DOCS / "output-formats.md").read_text()
    section = text.split("## Config files", 1)[1]
    example = section.split("```", 2)[1]
    config = tmp_path / "scan.cfg"
    config.write_text(example)
    out = tmp_path / "scan.csv"
    assert main(["scan-convergence", "--config", str(config), "--out", str(out)]) == 0
    rows = parse_csv(out.read_text())
    assert {r[0] for r in rows} == {"kink"}
    assert [int(r[1]) for r in rows if r[1]] == list(range(4, 17))
