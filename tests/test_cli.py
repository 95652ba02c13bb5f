import hashlib
import json

import numpy as np
import pytest

import gaborlab.algebra
import gaborlab.cli
from gaborlab.campaigns import duality_report
from gaborlab.cli import run
from gaborlab.reporting import Check, Report, flag_check

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


# sha256 of json.dumps(report["data"]["lattices"], sort_keys=True): the
# lattice order, generators, adjoints and covolumes, fixed once for good
LATTICES_SHA256 = {
    "8": "bfd55d680041dbde717c339dc84624dd6a91b0a35c7b32417ee4f0e4adf4642e",
    "2 2": "347b4af7d5436235a4d854fafb6709598c2441fbed260f8e07790d7586147f0a",
    "2 3": "46ddd2c67203f3786ddcc0083bf193623be7cb2433e106227d1b57dcc35201bd",
    "2 4": "71fdd042b4ebffb941b99da3f765bf829e3be6984f1ba4ebfb9c7ab76a8cce8c",
    "3 3": "185ddffad46bce0d5fcc508d464c2a49f6330a714e8e5ff817277a45d9ed602e",
}


@pytest.mark.parametrize("orders", list(LATTICES_SHA256))
def test_lattices_report_is_pinned(capsys, orders):
    code, report, err = run_cli(capsys, "lattices", "--orders", *orders.split())
    assert code == 0
    text = json.dumps(report["data"]["lattices"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICES_SHA256[orders]


# sha256 of json.dumps([[[name, passed] per check], summary], sort_keys=True)
# for `duality --orders ... --trials 3 --seed 5`: which checks run, in which
# order, and whether each passes, independent of the deviations' last digits
DUALITY_CHECKS_SHA256 = {
    "2 2": "c376c5cdebfac4bf18e525c06632eb5682c91d732a98259eec627ad0780229c3",
    "2 3": "a2dc0845816b825c50860bb9d654ef28ff81e661ba04142177da167e749ecdbd",
}


@pytest.mark.parametrize("orders", list(DUALITY_CHECKS_SHA256))
def test_duality_check_names_and_flags_are_pinned(capsys, orders):
    code, report, err = run_cli(
        capsys, "duality", "--orders", *orders.split(), "--trials", "3", "--seed", "5"
    )
    assert code == 0
    flags = [[c["name"], c["passed"]] for c in report["checks"]]
    text = json.dumps([flags, report["summary"]], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DUALITY_CHECKS_SHA256[orders]


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
    # a 'generators' or 'values' entry that is not a list is bad input, not a crash
    code, report, err = run_cli(
        capsys, "adjoint", "--orders", "4", "--lattice", '{"generators": 5}'
    )
    assert (code, report) == (2, None)
    assert "'generators' list" in err
    code, report, err = run_cli(
        capsys, "bessel", "--orders", "2", "--lattice", '{"generators": [[[1], [0]]]}',
        "--window", '{"values": 5}',
    )
    assert (code, report) == (2, None)
    assert "'values' list" in err


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


def test_bessel_rejects_zero_and_overflowing_windows(capsys):
    lattice = '{"generators": [[[1], [0]]]}'
    for scale, why in (
        ("0", "window is zero"),
        ("1e200", "overflows a float"),
        ("1e-200", "underflows a float"),
    ):
        window = f'{{"values": [[{scale}, 0], [0, 0], [0, 0], [0, 0]]}}'
        code, report, err = run_cli(
            capsys, "bessel", "--orders", "4", "--lattice", lattice, "--window", window
        )
        assert (code, report) == (2, None)
        assert why in err


def test_numerical_breakdown_exits_3(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    window = '{"values": [[1, 0], [0, 0], [0, 0], [0, 0]]}'
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", no_convergence)
        code, report, err = run_cli(
            capsys, "bessel", "--orders", "4", "--lattice", HALF, "--window", window
        )
    assert (code, report) == (3, None)
    assert "numerical breakdown: Eigenvalues did not converge" in err
    # a spectral split that merges every cluster fails on every draw
    monkeypatch.setattr(gaborlab.algebra, "_cluster_cuts", lambda evals: [0, int(evals.size)])
    code, report, err = run_cli(capsys, "bimodule", "--random", "--seed", "3")
    assert (code, report) == (3, None)
    assert "numerical breakdown" in err


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


def test_report_json_is_json_dumps_byte_for_byte():
    # to_json writes the checks without json's pure-Python indenting encoder
    def dumps(report):
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)

    real = duality_report((2, 2), trials=20, seed=3)
    text = real.to_json()
    assert len(text) > 900_000
    assert text == dumps(real)
    odd = Report("selftest", {"tol": None, "orders": [2]}, seed=1, data={"criteria": {"a": [1]}})
    odd.extend(
        [
            Check('say "hi" \\ bye', True, float("nan"), float("inf"), -0.0, float("-inf")),
            Check("ü/é/π/\u2028/\n/\t/\x00", False, np.float64(1e-300), 5e-324, 1e308, -0.0),
            flag_check("plain", np.bool_(True), 0.0, 1e-9),
        ]
    )
    assert odd.to_json() == dumps(odd)
    empty = Report("lattices", {})
    assert empty.to_json() == dumps(empty)


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
