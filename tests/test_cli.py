import json

import numpy as np
import pytest

from gaborlab.cli import run

SQUARE = '{"generators": [[[2], [0]], [[0], [2]]]}'
HALF = '{"generators": [[[2], [0]], [[0], [1]]]}'


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_adjoint_of_self_adjoint_lattice(capsys):
    code, report, err = run_cli(capsys, "adjoint", "--orders", "4", "--lattice", SQUARE)
    assert code == 0
    got = sorted(map(tuple, ((tuple(x), tuple(w)) for x, w in report["data"]["adjoint_elements"])))
    want = sorted([((0,), (0,)), ((0,), (2,)), ((2,), (0,)), ((2,), (2,))])
    assert got == want
    assert report["data"]["covolume"] == "1"
    assert report["summary"]["failed"] == 0
    assert "2/2 checks passed" in err


def test_malformed_lattice_json(capsys):
    code, report, err = run_cli(
        capsys, "adjoint", "--orders", "4", "--lattice", '{"generators": [[[2], [0]]'
    )
    assert code == 2
    assert report is None
    assert "could not parse lattice JSON" in err
    # the parser error carries a position
    assert "char" in err
    # well-formed JSON whose residues are not integers is bad input too
    for bad in (
        '{"generators": [[[1.5], [0]]]}',
        '{"orders": [4.9], "generators": [[["2"], [0]]]}',
        '{"generators": [[1, 2]]}',
    ):
        code, report, err = run_cli(capsys, "adjoint", "--orders", "4", "--lattice", bad)
        assert code == 2
        assert report is None
        assert "not a sequence of integers" in err
    # window values that are not JSON numbers are rejected, never coerced, and
    # an integer past the float range is bad input, not a crash
    for values, why in (
        ('[["1", "0"], [true, "-0"]]', "not a pair of numbers"),
        ('[["1", 0], [0, 0]]', "not a pair of numbers"),
        ('[[true, 0], [0, 0]]', "not a pair of numbers"),
        (f'[[1{"0" * 400}, 0], [0, 0]]', "overflows a float"),
    ):
        code, report, err = run_cli(
            capsys, "bessel", "--orders", "2", "--lattice", '{"generators": [[[1], [0]]]}',
            "--window", f'{{"values": {values}}}',
        )
        assert code == 2
        assert report is None
        assert why in err


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag(capsys):
    assert run(["adjoint", "--orders", "4"]) == 2
    capsys.readouterr()


def test_orders_mismatch_rejected(capsys):
    bad = '{"orders": [2], "generators": []}'
    code, report, err = run_cli(capsys, "adjoint", "--orders", "4", "--lattice", bad)
    assert code == 2
    assert "disagree" in err
    # a fractional order is rejected, not truncated to a match
    for bad in ('{"orders": [4.9], "generators": []}', '{"orders": [4.0], "generators": []}'):
        code, report, err = run_cli(capsys, "adjoint", "--orders", "4", "--lattice", bad)
        assert code == 2
        assert report is None
        assert "not a sequence of integers" in err


def test_lattices_enumeration(capsys):
    code, report, err = run_cli(capsys, "lattices", "--orders", "2", "2")
    assert code == 0
    assert len(report["data"]["lattices"]) == 67
    assert report["summary"]["total"] == 67
    assert report["summary"]["failed"] == 0


def test_bessel_from_files(tmp_path, capsys):
    lat_file = tmp_path / "lat.json"
    lat_file.write_text(HALF)
    win_file = tmp_path / "win.json"
    win_file.write_text(json.dumps(
        {"orders": [4], "values": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    ))
    code, report, err = run_cli(
        capsys, "bessel", "--orders", "4", "--lattice", str(lat_file), "--window", str(win_file)
    )
    assert code == 0
    assert report["data"]["bessel_bound"] == pytest.approx(4.0)
    assert report["data"]["adjoint_bessel_bound"] == pytest.approx(2.0)
    assert report["data"]["covolume"] == "1/2"


def test_bessel_tolerance_override_forces_failure(tmp_path, capsys):
    rng = np.random.default_rng(99)
    vals = rng.normal(size=4)
    win = {"orders": [4], "values": [[float(v), 0.0] for v in vals]}
    win_file = tmp_path / "win.json"
    win_file.write_text(json.dumps(win))
    code, report, err = run_cli(
        capsys,
        "bessel", "--orders", "4", "--lattice", HALF, "--window", str(win_file),
        "--tol", "1e-30",
    )
    assert code == 1
    assert report["summary"]["failed"] >= 1
    # same inputs at the default tolerance pass
    code2, report2, _ = run_cli(
        capsys, "bessel", "--orders", "4", "--lattice", HALF, "--window", str(win_file)
    )
    assert code2 == 0


def test_duality_reports_are_byte_identical(capsys):
    args = ["duality", "--orders", "4", "--all-lattices", "--trials", "2", "--seed", "7"]
    code1 = run(args)
    out1 = capsys.readouterr().out
    code2 = run(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["summary"]["failed"] == 0
    assert report["seed"] == 7


def test_duality_single_lattice(capsys):
    code, report, err = run_cli(
        capsys, "duality", "--orders", "4", "--lattice", SQUARE, "--trials", "3"
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any("bessel-duality" in n for n in names)
    assert any("commutant" in n for n in names)


def test_bimodule_random_instance(capsys):
    code, report, err = run_cli(capsys, "bimodule", "--random", "--seed", "3")
    assert code == 0
    assert report["data"]["space_dim"] <= 32
    names = [c["name"] for c in report["checks"]]
    assert "hypotheses" in names
    assert "norm-inequality" in names


def test_selftest_small_order(capsys):
    code, report, err = run_cli(capsys, "selftest", "--max-order", "2", "--seed", "3")
    assert code == 0
    criteria = report["data"]["criteria"]
    prefixes = sorted(name.split("-")[0] for name in criteria)
    assert prefixes == [f"a{i}" for i in range(1, 10)]
    assert all(entry["failed"] == 0 for entry in criteria.values())


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()
