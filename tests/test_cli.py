"""Command-line surface: formats, exit codes, config files, determinism."""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import xxzdroplet.cli as cli
from xxzdroplet import spectra, verify
from xxzdroplet.cli import (
    CSV_HEADER,
    ScanRecord,
    main,
    records_to_csv,
    records_to_json,
)
from xxzdroplet.operators import Anisotropy, SparseOperator, build_reduced_kernel
from xxzdroplet.sector_basis import DimensionGuardError

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
        ScanRecord("kink", 4, 1, 0.5, None, None, 0.5, "gram-cholesky", 1e-16, 0.01),
        ScanRecord("kink", 2, 1, 0.5, None, None, 1.0, "gram-cholesky", 1e-16, 0.01),
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
    rec = ScanRecord("kink", 16, 1, 0.5, None, None, value, "gram-cholesky", None, None)
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


def test_hw_gram_guard_trips_before_densifying(monkeypatch):
    def refuse(self):
        raise AssertionError("densified before the guard")

    monkeypatch.setattr(spectra, "DENSE_GUARD", 3)
    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    with pytest.raises(DimensionGuardError):
        cli.hw_gram_lowest(8, 2, Anisotropy(0.5))


def test_hw_direct_guard_trips_before_building(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("bracket matrix built before the guard")

    monkeypatch.setattr(cli, "build_hw_matrix", refuse)
    code = main(["hw-spectrum", "--L", "20", "--n", "5", "--q", "0.5",
                 "--method", "direct"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "dense path refuses dim 10659 > 4000" in captured.err


def test_empty_highest_weight_space_exit_code(tmp_path, capsys):
    # n > L/2 has no brackets; a small sector must fail fast, not expand 2^n
    for extra in ((), ("--export-matrix", str(tmp_path))):
        code, _ = run_cli(
            capsys, "hw-spectrum", "--L", "40", "--n", "38", "--q", "0.5", *extra
        )
        assert code == 2


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
    assert abs(by_method["gram-cholesky"] - by_method["bracket-dense"]) < 1e-9
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
    full = spectra.dense_spectrum(kernel.to_csr(), k=2, compute_vectors=True).values
    assert vals["kernel-dense"] == full[0]
    assert vals["kernel-excited"] == full[1]


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


def test_output_deterministic_except_seconds(capsys):
    args = ["sector-spectrum", "--bc", "cyclic", "--L", "8", "--n", "2", "--q", "0.3"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    rows1, rows2 = parse_csv(first), parse_csv(second)
    assert [r[:9] for r in rows1] == [r[:9] for r in rows2]


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
