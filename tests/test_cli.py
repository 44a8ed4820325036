import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest
from helpers import assert_same_lines

CMD = [sys.executable, "-m", "mbonacci"]


def run_cli(*args, **kwargs):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, **kwargs)


def test_expand_roundtrip():
    out = run_cli("expand", "--m", "3", "--n", "12")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert "digits (most significant first): 1101" in lines
    decomposition = lines[-1]
    lhs, rhs = decomposition.split(" = ")
    assert int(lhs) == 12
    assert sum(int(t) for t in rhs.split(" + ")) == 12


def test_expand_zero():
    out = run_cli("expand", "--m", "2", "--n", "0")
    assert out.returncode == 0
    assert "0 = 0" in out.stdout


@pytest.mark.parametrize("m, n, digest", [
    (3, 12, "29d44aab228a96be2ca19e0c72d08d6ee9fd0c320ed6d82bab001d029ecbbea4"),
    (2, 0, "d04218bcd13741fed441df7cdde4437f67c7bb097ee4ae0766520cb6a40f190c"),
    # past 2^26, on the wider basis that expand builds for its n
    (2, 10 ** 11, "a897fbae267d012bfb08772c3787a7a7f223fe9269b81277d2e0e2daeba5c9ad"),
])
def test_expand_output_frozen(m, n, digest):
    out = run_cli("expand", "--m", str(m), "--n", str(n))
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


def test_seq_halton_first_row_is_origin():
    out = run_cli("seq", "halton", "--ms", "2,3", "--count", "1")
    assert out.returncode == 0
    header, row = out.stdout.strip().split("\n")
    assert header == "n,v1,v2"
    fields = row.split(",")
    assert fields[0] == "0"
    assert float(fields[1]) == 0.0 and float(fields[2]) == 0.0


def test_seq_vdc_values_and_digits_flag():
    out = run_cli("seq", "vdc", "--m", "2", "--count", "3", "--digits", "6")
    rows = out.stdout.strip().split("\n")
    assert rows[1] == "0,0.000000"
    assert rows[2] == "1,0.618034"


def test_byte_identical_reruns():
    a = run_cli("seq", "halton", "--ms", "2,3", "--count", "50")
    b = run_cli("seq", "halton", "--ms", "2,3", "--count", "50")
    assert a.stdout == b.stdout
    c = run_cli("expand", "--m", "4", "--n", "123456")
    d = run_cli("expand", "--m", "4", "--n", "123456")
    assert c.stdout == d.stdout


def test_exponent_json():
    out = run_cli("exponent", "--ms", "2,3", "--dims", "0,1.09336")
    payload = json.loads(out.stdout)
    assert payload["method"] == "theorem_exponent"
    assert abs(payload["value"] + 0.302213) <= 1e-6


def test_local_disc_json():
    out = run_cli("local-disc", "--m", "2", "--k", "3", "--count", "1000")
    payload = json.loads(out.stdout)
    assert set(payload) == {"k", "N", "delta"}
    assert payload["k"] == 3 and payload["N"] == 1000
    assert 0.0 <= payload["delta"] <= 1.0


def test_local_disc_levels_up_to_the_basis(capsys):
    from mbonacci import cli

    # one system per m covers every count, so the deepest level,
    # len(basis) - m, is fixed by m alone
    def refused(m, limit, count):
        rc = cli.main(["local-disc", "--m", str(m), "--k", str(limit + 1), "--count", count])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        return captured.err == f"error: k={limit + 1} past {limit}, the deepest level the basis covers\n"

    for count in ("1", "100", str(10 ** 6)):
        for k in (6, 41):
            assert cli.main(["local-disc", "--m", "2", "--k", str(k), "--count", count]) == 0
            assert json.loads(capsys.readouterr().out)["k"] == k, (k, count)
        assert refused(2, 41, count), count
    for m, limit in ((3, 33), (4, 31), (5, 30), (6, 30)):
        assert refused(m, limit, "1"), m


def test_disc_1d_json():
    out = run_cli("disc", "1d", "--m", "2", "--count", "1000")
    payload = json.loads(out.stdout)
    assert payload["method"] == "exact1d" and payload["N"] == 1000 and payload["s"] == 1
    assert payload["exact"] is True
    # the sorted formula on 60-digit mpmath values, rounded once
    assert payload["value"] == 0.002216576274079761


def test_disc_1d_builds_no_values(capsys, monkeypatch):
    # the command reads the digit code of the count, never the N values
    from mbonacci import cli, discrepancy, rotation

    def bulk(*args):
        raise AssertionError("the bulk route ran")

    monkeypatch.setattr(rotation, "vdc_values", bulk)
    monkeypatch.setattr(discrepancy, "star_disc_1d", bulk)
    assert cli.main(["disc", "1d", "--m", "2", "--count", "2000000"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.468520585084859e-06


def test_commands_load_neither_mpmath_nor_verify():
    # mpmath is the tests' oracle, and only verify and reproduce-example
    # read the check registry
    script = ("import sys\n"
              "from mbonacci import cli\n"
              "assert cli.main(['exponent', '--ms', '2,3', '--dims', '0,1.09336']) == 0\n"
              "assert cli.main(['disc', 'multi', '--ms', '2,3', '--count', '64']) == 0\n"
              "assert cli.main(['disc', '1d', '--m', '3', '--count', '1000']) == 0\n"
              "assert cli.main(['dim', '--m', '3', '--depth', '20000', '--levels', '3-5']) == 0\n"
              "print(sorted({'mpmath', 'mbonacci.verify'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip().split("\n")[-1] == "[]"


def test_disc_multi_json_schema():
    out = run_cli("disc", "multi", "--ms", "2,3", "--count", "128")
    payload = json.loads(out.stdout)
    assert payload["N"] == 128 and payload["s"] == 2
    assert 0.0 < payload["value"] <= 1.0
    assert "wall_seconds" in payload and payload["method"] == "exact_corner_sweep"
    assert payload["exact"] is True


def test_disc_fit_json():
    out = run_cli("disc", "fit", "--ms", "2", "--min-exp", "6", "--max-exp", "10")
    payload = json.loads(out.stdout)
    assert payload["exponent"] <= -0.8
    assert 0.0 <= payload["r2"] <= 1.0
    assert payload["exact"] is True


def test_one_axis_halton_reads_the_closed_form(capsys, monkeypatch):
    # one axis is the van der Corput set: `disc multi` and every sample of
    # `disc fit` report `disc 1d`'s value, and no point is made
    from mbonacci import cli, discrepancy, numeration, rotation

    def bulk(*args):
        raise AssertionError("the bulk route ran")

    samples = []
    fit = discrepancy.decay_fit

    def recorded_fit(given):
        samples.extend(given)
        return fit(given)

    monkeypatch.setattr(rotation, "halton_points", bulk)
    monkeypatch.setattr(discrepancy, "star_disc", bulk)
    monkeypatch.setattr(discrepancy, "decay_fit", recorded_fit)
    assert cli.main(["disc", "multi", "--ms", "2", "--count", "2000000"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.468520585084859e-06
    assert cli.main(["disc", "fit", "--ms", "3", "--min-exp", "4", "--max-exp", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    system = numeration.make_system(3)
    assert samples == [(2 ** e, rotation.star_discrepancy(system, 2 ** e).value)
                       for e in range(4, 10)]
    assert payload["N"] == 512 and payload["value"] == samples[-1][1]


def test_disc_file(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x1,x2\n0.0,0.0\n0.5,0.5\n")
    out = run_cli("disc", "file", "--input", str(path))
    payload = json.loads(out.stdout)
    assert abs(payload["value"] - 0.75) < 1e-12
    assert payload["exact"] is True
    for text in ("x1\n0.5\nnan\n0.25\n", "x1,x2\n0.1,0.2\n0.3,nan\n"):
        path.write_text(text)
        out = run_cli("disc", "file", "--input", str(path))
        assert out.returncode == 1
        assert "non-finite" in out.stderr and out.stdout == ""
    # the first row outside [0, 1) is named; -0.0 lies inside, as in the kernels
    for text, row in [("x1,x2\n0.1,0.2\n0.7,1.0\n0.3,-0.5\n", "point row 2 lies outside "
                       "[0, 1): '0.7,1.0'"),
                      ("x1\n0.5\n-0.25\n", "point row 2 lies outside [0, 1): '-0.25'")]:
        path.write_text(text)
        out = run_cli("disc", "file", "--input", str(path))
        assert out.returncode == 1 and out.stdout == "", text
        assert out.stderr == f"error: {row}\n", text
    path.write_text("x1,x2\n-0.0,0.5\n0.5,-0.0\n")
    out = run_cli("disc", "file", "--input", str(path))
    assert out.returncode == 0 and json.loads(out.stdout)["exact"] is True
    # ragged rows, bad tokens, comment lines and a header alone
    for text in ("x1,x2\n0.1,0.2\n0.3\n", "x1,x2\n0.1,abc\n", "x1,x2\n# c\n", "x1,x2\n"):
        path.write_text(text)
        out = run_cli("disc", "file", "--input", str(path))
        assert out.returncode == 1 and out.stdout == "", text
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr, text
        assert "Warning" not in out.stderr, text


def test_disc_reports_inexact_values(monkeypatch, capsys):
    from mbonacci import cli, discrepancy

    monkeypatch.setattr(discrepancy, "DEFAULT_MAX_EXACT_OPS", 2000)
    multi = discrepancy.star_disc_multi
    sizes = []

    def recording_multi(points):
        sizes.append(len(points))
        return multi(points)

    monkeypatch.setattr(discrepancy, "star_disc_multi", recording_multi)
    assert cli.main(["disc", "multi", "--ms", "2,3", "--count", "128"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] is False
    assert payload["method"] == "corner_block_lower_bound"
    # the search finishes within 2000 units of work at N = 16 and 32, not
    # at N = 64, and fit refuses there without computing a later sample
    sizes.clear()
    rc = cli.main(["disc", "fit", "--ms", "2,3", "--min-exp", "4", "--max-exp", "8"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "N = 64" in captured.err and "--max-exp" in captured.err
    assert sizes == [16, 32, 64]


def test_disc_exact_past_a_grid_of_budget_cells():
    # Halton (2, 3) at N = 2^15 has 2^30 + 65 537 grid cells, but the block
    # search's passes fit the budget; the value is the whole-grid maximum
    out = run_cli("disc", "multi", "--ms", "2,3", "--count", "32768")
    payload = json.loads(out.stdout)
    assert payload["exact"] is True and payload["method"] == "exact_corner_sweep"
    assert payload["value"] == 0.0020361292701812916
    out = run_cli("disc", "fit", "--ms", "2,3", "--min-exp", "12", "--max-exp", "15")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["exact"] is True and payload["N"] == 32768


def test_dim_json():
    out = run_cli("dim", "--m", "2", "--depth", "5000", "--levels", "3-6")
    payload = json.loads(out.stdout)
    assert payload["levels"] == [3, 4, 5, 6]
    assert len(payload["counts"]) == 4
    assert payload["value"] <= 0.2


def test_dim_builds_no_cloud_array(capsys, monkeypatch):
    # the command's box count reads the points as they are computed, so
    # the cloud never fills its `unreduced` array
    from mbonacci import cli, rauzy

    clouds = []
    build = rauzy.build_cloud

    def recorded_build(*args):
        clouds.append(build(*args))
        return clouds[-1]

    monkeypatch.setattr(rauzy, "build_cloud", recorded_build)
    assert cli.main(["dim", "--m", "3", "--depth", "100000", "--levels", "3-6"]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 100001
    assert len(clouds) == 1 and "unreduced" not in clouds[0].__dict__


def test_fractal_csv_and_ppm(tmp_path):
    csv_path = tmp_path / "cloud.csv"
    ppm_path = tmp_path / "cloud.ppm"
    out = run_cli("fractal", "--m", "3", "--depth", "500",
                  "-o", str(csv_path), "--ppm", str(ppm_path), "--size", "32")
    assert out.returncode == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "n,label,c1,c2"
    assert len(lines) == 502
    assert ppm_path.read_bytes().startswith(b"P6\n32 32\n255\n")
    # the CSV of a benchmark-sized cloud, frozen byte for byte
    out = subprocess.run(CMD + ["fractal", "--m", "3", "--depth", "100000"], capture_output=True)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == (
        "aa71e8679644a298ea459c2d4853daf054c19b623125fe35987db96754d20546")
    # and its render, frozen byte for byte
    out = run_cli("fractal", "--m", "3", "--depth", "100000", "--ppm", str(ppm_path))
    assert out.returncode == 0
    assert hashlib.sha256(ppm_path.read_bytes()).hexdigest() == (
        "7ba961ebd85503c5b4101afae4ec9687f934ad3594c4344bb1916aa9b6fea394")


def test_bad_flags_exit_2(capsys):
    from mbonacci import cli

    out = run_cli("expand", "--m", "2")
    assert out.returncode == 2
    out = run_cli("nonsense")
    assert out.returncode == 2
    for digits in ("0", "31"):
        out = run_cli("seq", "vdc", "--m", "2", "--count", "2", "--digits", digits)
        assert out.returncode == 2 and out.stdout == ""
        assert "--digits" in out.stderr and "Traceback" not in out.stderr
    # a count below 1 is refused by the parser, naming the flag
    for argv in [
        ("seq", "vdc", "--m", "2", "--count", "0"),
        ("seq", "halton", "--ms", "2,3", "--count", "-2"),
        ("disc", "1d", "--m", "2", "--count", "0"),
        ("disc", "multi", "--ms", "2,3", "--count", "0"),
        ("local-disc", "--m", "2", "--k", "1", "--count", "0"),
    ]:
        out = run_cli(*argv)
        assert out.returncode == 2 and out.stdout == "", argv
        assert "argument --count: must be >= 1" in out.stderr, argv
        assert "max_n" not in out.stderr and "Traceback" not in out.stderr, argv
    for flag in ("--count", "--digits"):
        out = run_cli("seq", "vdc", "--m", "2", "--count", "5", flag, "1e5")
        assert out.returncode == 2 and f"argument {flag}: invalid int value: '1e5'" in out.stderr
    out = run_cli("verify", "--quick")
    assert out.returncode == 2 and "unrecognized arguments: --quick" in out.stderr
    # --digits belongs after the commands that write CSV; after any other
    # command it is unknown, and before any command it is named, not taken
    # for a command name
    csv_commands = [
        ("seq", "vdc", "--m", "2", "--count", "3"),
        ("seq", "halton", "--ms", "2,3", "--count", "3"),
        ("fractal", "--m", "3", "--depth", "100"),
    ]
    other_commands = [
        ("expand", "--m", "2", "--n", "3"),
        ("disc", "1d", "--m", "2", "--count", "10"),
        ("disc", "multi", "--ms", "2,3", "--count", "10"),
        ("disc", "fit", "--ms", "2,3"),
        ("disc", "file", "--input", os.devnull),
        ("dim", "--m", "3", "--depth", "100"),
        ("exponent", "--ms", "2,3", "--dims", "0,1"),
        ("local-disc", "--m", "2", "--k", "1", "--count", "10"),
        ("verify",),
        ("reproduce-example", "--quick"),
    ]
    misplaced = "argument --digits: goes after the command: seq vdc, seq halton or fractal"
    cases = [(list(argv) + ["--digits", "5"], "unrecognized arguments: --digits 5")
             for argv in other_commands]
    cases += [(["--digits", "5"] + list(argv), misplaced)
              for argv in csv_commands + other_commands]
    cases += [(["seq", "--digits", "5", "vdc", "--m", "2", "--count", "3"], misplaced),
              (["disc", "--digits", "5", "1d", "--m", "2", "--count", "10"], misplaced)]
    for full, message in cases:
        with pytest.raises(SystemExit) as exit_:
            cli.main(full)
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == "", full
        assert message in captured.err and "invalid choice" not in captured.err, full
    # list flags name their type, as --count names int, and refuse an empty range
    for argv, message in [
        (("seq", "halton", "--ms", "2,a", "--count", "3"), "argument --ms: invalid int value: 'a'"),
        (("exponent", "--ms", "2,3", "--dims", "0,x"), "argument --dims: invalid float value: 'x'"),
        (("dim", "--m", "3", "--depth", "100", "--levels", "4,x"),
         "argument --levels: invalid int value: 'x'"),
        (("dim", "--m", "3", "--depth", "100", "--levels", "4-x"),
         "argument --levels: invalid int value: 'x'"),
        (("dim", "--m", "3", "--depth", "100", "--levels", "9-4"),
         "argument --levels: empty range '9-4'"),
    ]:
        out = run_cli(*argv)
        assert out.returncode == 2 and out.stdout == "", argv
        assert message in out.stderr, argv


def test_module_error_exit_1():
    out = run_cli("exponent", "--ms", "3,3", "--dims", "0,1")
    assert out.returncode == 1
    assert "pairwise distinct" in out.stderr
    out = run_cli("expand", "--m", "1", "--n", "3")
    assert out.returncode == 1
    out = run_cli("expand", "--m", "2", "--n", str(10 ** 200))
    assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
    assert f"basis overflow: n = {10 ** 200} needs more basis terms than the cap of 512" \
        in out.stderr
    # an m whose basis outgrows the cap is named, on every command that builds one
    for argv in (("seq", "vdc", "--m", "483", "--count", "2"),
                 ("local-disc", "--m", "483", "--k", "0", "--count", "2"),
                 ("fractal", "--m", "483", "--depth", "2"),
                 ("expand", "--m", "483", "--n", "5")):
        out = run_cli(*argv)
        assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr, argv
        assert "basis overflow: m = 483 needs more basis terms than the cap of 512" \
            in out.stderr, argv
    out = run_cli("exponent", "--ms", "2,3", "--dims", "nan,1")
    assert out.returncode == 1 and out.stdout == ""
    assert "boundary dimension nan" in out.stderr
    out = run_cli("disc", "fit", "--ms", "2,3", "--min-exp", "-1")
    assert out.returncode == 1 and "Traceback" not in out.stderr
    assert "--min-exp must be >= 0" in out.stderr
    # the fit needs 4 samples; the flags are checked before anything is built
    for argv in (("--max-exp", "-1"), ("--min-exp", "5", "--max-exp", "3")):
        out = run_cli("disc", "fit", "--ms", "2,3", *argv)
        assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr, argv
        assert "--max-exp must be >= --min-exp + 3" in out.stderr, argv
    # every exponent past the count limit's is refused by name, before its count is formed
    for hi in ("27", "36", "63", "5000", "100000"):
        out = run_cli("disc", "fit", "--ms", "2,3", "--max-exp", hi)
        assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr, hi
        assert f"--max-exp must be <= 26, the count limit 2^26, got {hi}" in out.stderr, hi
    out = run_cli("local-disc", "--m", "2", "--k", "-1", "--count", "10")
    assert out.returncode == 1 and "k must be >= 0, got -1" in out.stderr
    # a Halton set of one axis is the van der Corput set, so its report is
    # `disc 1d`'s, read off the code of the count and rounded once
    reports = []
    for argv in (("disc", "multi", "--ms", "3", "--count", "1000"),
                 ("disc", "1d", "--m", "3", "--count", "1000")):
        out = run_cli(*argv)
        assert out.returncode == 0 and out.stderr == "", argv
        reports.append({k: v for k, v in json.loads(out.stdout).items() if k != "wall_seconds"})
    assert reports[0] == reports[1] and reports[0]["method"] == "exact1d"
    assert reports[0]["value"] == 0.0030444632970767944
    for levels in ("4", "4,4"):
        out = run_cli("dim", "--m", "3", "--depth", "1000", "--levels", levels)
        assert out.returncode == 1 and out.stdout == "", levels
        assert "levels must hold at least two distinct values" in out.stderr, levels


def test_dim_refuses_levels_before_building_the_cloud(capsys, monkeypatch):
    from mbonacci import cli, rauzy

    def no_cloud(*args):
        raise AssertionError("the cloud was built")

    monkeypatch.setattr(rauzy, "build_cloud", no_cloud)
    for argv, message in [
        (("--m", "4", "--depth", "4000000"), "cloud of 4000001 points too sparse for level 9"),
        (("--m", "3", "--depth", "4000000", "--levels", "4,4"),
         "levels must hold at least two distinct values for a slope, got [4, 4]"),
        (("--m", "3", "--depth", "4000000", "--levels", "0-3"),
         "levels must be positive integers"),
    ]:
        assert cli.main(["dim", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err, argv
    # huge counts are refused before anything is allocated
    huge = str(10 ** 12)
    for argv, count in [
        (("seq", "vdc", "--m", "2", "--count", huge), huge),
        (("seq", "halton", "--ms", "2,3", "--count", huge), huge),
        (("disc", "1d", "--m", "2", "--count", huge), huge),
        (("local-disc", "--m", "2", "--k", "3", "--count", huge), huge),
    ]:
        out = run_cli(*argv)
        assert out.returncode == 1 and out.stdout == "", argv
        assert f"count {count}" in out.stderr and "Traceback" not in out.stderr, argv
    out = run_cli("fractal", "--m", "3", "--depth", "100", "--ppm", os.devnull, "--size", "0")
    assert out.returncode == 1 and "size must be >= 1, got 0" in out.stderr
    out = run_cli("fractal", "--m", "3", "--depth", "100", "--ppm", os.devnull,
                  "--size", "100000")
    assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
    assert "size 100000 gives a 100000 x 100000 image" in out.stderr


def test_fractal_refuses_ppm_settings_before_building_the_cloud(capsys, monkeypatch):
    from mbonacci import cli, rauzy

    def no_cloud(*args):
        raise AssertionError("the cloud was built")

    monkeypatch.setattr(rauzy, "build_cloud", no_cloud)
    for argv, message in [
        (("--m", "4", "--depth", "4000000"), "PPM rendering supports m = 2 or 3 only"),
        (("--m", "3", "--depth", "100", "--size", "0"), "size must be >= 1, got 0"),
        (("--m", "3", "--depth", "4000000", "--size", "100000"),
         "size 100000 gives a 100000 x 100000 image, above the limit of 67108864 pixels"),
    ]:
        assert cli.main(["fractal", *argv, "--ppm", os.devnull]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv


# the pins of whole commands that no other test holds, run on every CI
# leg: a SHA-256 of the output, JSON fields, or None for exit status 0 alone
_CI_PINS = [
    # the double-double prefix fill of every van der Corput value
    (("seq", "vdc", "--m", "3", "--count", "200000"),
     "92d0ebce460f7cca4c9fb7c96ac7a3f049efe1c85efdc04974073b8fac96148f"),
    (("seq", "halton", "--ms", "2,3,5", "--count", "100000"),
     "74015653f4263228cbcae06e5aaf30d5b3efe3001282ce906b588a89ba3631ab"),
    # the same bytes through the file route as through stdout's byte layer
    (("seq", "halton", "--ms", "2,3,5", "--count", "100000", "-o", "h.csv"),
     "74015653f4263228cbcae06e5aaf30d5b3efe3001282ce906b588a89ba3631ab"),
    (("disc", "1d", "--m", "2", "--count", "2000000"), {"value": 2.468520585084859e-06}),
    # one past the basis term 1 346 269, so the code of the count holds ones at
    # its top digit and digit 0 alone
    (("disc", "1d", "--m", "2", "--count", "1346270"), {"value": 1.6118688866809912e-06}),
    # the CSV point reader on the benchmark's 200 000 repr rows (perfbench/workloads.py, seed 1)
    (("disc", "file", "--input", "points.csv"), {"value": 0.0016998187979841983}),
    # a deep level, each address's count read off the digit code of the count alone
    (("local-disc", "--m", "3", "--k", "20", "--count", "1000000"),
     {"k": 20, "delta": 5.056091428186279e-07}),
    # the count limit 2^26, whose closed form reads no digit code of size N
    (("local-disc", "--m", "5", "--k", "12", "--count", "67108864"),
     {"k": 12, "delta": 1.4726104532623505e-08}),
    # the deepest level is fixed by m, not by the count
    (("local-disc", "--m", "2", "--k", "41", "--count", "1"),
     {"k": 41, "delta": 0.9999999983307587}),
    # 3-D box counting at the depth cap, pooled from the finest level
    (("dim", "--m", "4", "--depth", "4000000", "--levels", "3-6"),
     {"counts": [628, 2490, 10330, 43898]}),
    (("disc", "multi", "--ms", "2,3", "--count", "100000"),
     {"value": 0.0004479772889363909, "exact": True}),
    # s = 3 blocks refined level by level once a whole-grid pass keeps few of them
    (("disc", "multi", "--ms", "2,3,5", "--count", "1024"),
     {"value": 0.024760884225451585, "exact": True}),
    # no pass that fits keeps few enough blocks, so the last walks all of
    # them and its best corner value is reported as a lower bound
    (("disc", "multi", "--ms", "2,3,5", "--count", "4096"),
     {"value": 0.01049259629057514, "exact": False, "method": "corner_block_lower_bound"}),
    # the t = 4 finish walk at s = 5, whose slab of one block's inner
    # plane (33^3 cells) is more than numeration.BLOCK
    (("disc", "multi", "--ms", "2,3,4,5,6", "--count", "128"),
     {"value": 0.10581652171169709, "exact": False, "method": "corner_block_lower_bound"}),
    (("disc", "fit", "--ms", "2,3", "--min-exp", "8", "--max-exp", "16"), None),
]


@pytest.mark.parametrize("argv, want", _CI_PINS, ids=[" ".join(argv) for argv, _ in _CI_PINS])
def test_console_script_pins(tmp_path, argv, want):
    if "points.csv" in argv:
        r = random.Random(1)
        points = tmp_path / "points.csv"
        points.write_text("x1\n" + "".join(f"{r.random()!r}\n" for _ in range(200000)))
        argv = tuple(str(points) if a == "points.csv" else a for a in argv)
    written = tmp_path / "h.csv"
    argv = tuple(str(written) if a == "h.csv" else a for a in argv)
    out = subprocess.run(CMD + list(argv), capture_output=True)
    assert out.returncode == 0, out.stderr
    if isinstance(want, str):
        if "-o" in argv:
            assert out.stdout == b""
        text = written.read_bytes() if "-o" in argv else out.stdout
        assert hashlib.sha256(text).hexdigest() == want
    elif want is not None:
        payload = json.loads(out.stdout)
        assert {key: payload[key] for key in want} == want


def test_output_flag_writes_file(tmp_path):
    path = tmp_path / "seq.csv"
    out = run_cli("seq", "vdc", "--m", "2", "--count", "4", "-o", str(path))
    assert out.returncode == 0 and out.stdout == ""
    assert path.read_text().startswith("n,value\n0,")
    # -o is global: it goes before or after any command
    for argv in (("-o", str(path), "exponent", "--ms", "2,3", "--dims", "0,1"),
                 ("exponent", "--ms", "2,3", "--dims", "0,1", "-o", str(path))):
        path.unlink()
        out = run_cli(*argv)
        assert out.returncode == 0 and out.stdout == "", argv
        assert json.loads(path.read_text())["method"] == "theorem_exponent", argv


def test_back_to_back_main_calls(tmp_path, capsys, monkeypatch):
    # one process, one parser: a flag of one call never reaches the next,
    # and a refused command leaves nothing behind.  The subprocess sees the
    # same terminal width, so argparse wraps its usage lines alike
    from mbonacci import cli

    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "out.json"
    exponent = ["exponent", "--ms", "2,3", "--dims", "0,1"]
    seq = ["seq", "vdc", "--m", "2", "--count", "3"]
    assert cli.main(exponent + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    path.unlink()
    assert cli.main(exponent) == 0
    assert capsys.readouterr().out == run_cli(*exponent).stdout and not path.exists()
    assert cli.main(seq + ["--digits", "3"]) == 0
    assert capsys.readouterr().out == run_cli(*seq, "--digits", "3").stdout
    assert cli.main(seq) == 0
    assert capsys.readouterr().out == run_cli(*seq).stdout
    for refused, code in ((["seq", "vdc", "--m", "2", "--count", "0"], 2),
                          (["--digits", "5"] + seq, 2),
                          (["exponent", "--ms", "3,3", "--dims", "0,1"], 1)):
        fresh = run_cli(*refused)
        if code == 2:
            with pytest.raises(SystemExit) as exit_:
                cli.main(refused)
            assert exit_.value.code == 2
        else:
            assert cli.main(refused) == 1
        assert fresh.returncode == code and capsys.readouterr().err == fresh.stderr, refused
        assert cli.main(seq) == 0
        assert capsys.readouterr().out == run_cli(*seq).stdout, refused


def _rows(header, int_cols, float_cols, d):
    """Row-by-row CSV rendering, the reference for the chunked writer."""
    lines = [",".join(header)]
    for n in range(len(int_cols[0])):
        fields = [str(int(c[n])) for c in int_cols] + [f"{c[n]:.{d}f}" for c in float_cols]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("digits", [1, 15, 16, 30])
def test_csv_writer_crosses_chunk_boundary(tmp_path, capsys, digits):
    from mbonacci import cli, numeration, rauzy, rotation, textio

    count = textio.CHUNK_ROWS + 3
    vdc = rotation.vdc_values(numeration.make_system(3, count), count)
    systems = tuple(numeration.make_system(m, count) for m in (2, 3))
    pts = rotation.halton_points(systems, count)
    cloud = rauzy.build_cloud(3, count - 1)
    cases = [
        (["seq", "vdc", "--m", "3", "--count", str(count)],
         _rows(["n", "value"], [range(count)], [vdc], digits)),
        (["seq", "halton", "--ms", "2,3", "--count", str(count)],
         _rows(["n", "v1", "v2"], [range(count)], list(pts.T), digits)),
        (["fractal", "--m", "3", "--depth", str(count - 1)],
         _rows(["n", "label", "c1", "c2"], [range(count), cloud.labels],
               list(cloud.reduced.T), digits)),
    ]
    for argv, expected in cases:
        path = tmp_path / "out.csv"
        assert cli.main(argv + ["--digits", str(digits), "-o", str(path)]) == 0
        assert_same_lines(path.read_bytes().decode(), expected)
        assert cli.main(argv + ["--digits", str(digits)]) == 0
        assert_same_lines(capsys.readouterr().out, expected)


def test_verify_table_format(monkeypatch, capsys):
    from mbonacci import cli, verify

    fake = [
        verify.CheckResult("alpha", True, "fine", 0.01),
        verify.CheckResult("beta", False, "broken", 0.02),
    ]
    monkeypatch.setattr(verify, "run_checks", lambda full=False: fake)
    rc = cli.main(["verify"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "PASS  alpha" in out and "FAIL  beta" in out
    assert "1/2 checks passed" in out


def test_verify_reports_failed_and_over_budget_checks(monkeypatch, capsys):
    from mbonacci import cli, verify

    def fails(full):
        assert 1 + 1 == 3, "arithmetic drifted by 1"

    def slow(full):
        time.sleep(0.02)
        return "slow but right"

    monkeypatch.setattr(verify, "CHECKS", (
        verify.Check(1, "asserts", fails),
        verify.Check(2, "crashes", lambda full: 1 / 0),
        verify.Check(3, "slow", slow, budget=0.01),
    ))
    rc = cli.main(["verify", "--full"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  asserts" in out and "arithmetic drifted by 1" in out
    assert "FAIL  crashes" in out and "raised ZeroDivisionError" in out
    assert "FAIL  slow" in out and "over its 0.01s budget" in out
    assert "0/3 checks passed" in out
    # the budget binds only at full scale
    rc = cli.main(["verify"])
    out = capsys.readouterr().out
    assert rc == 1 and "PASS  slow" in out and "1/3 checks passed" in out


def test_reproduce_example_quick():
    out = run_cli("reproduce-example", "--quick")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().split("\n")
    assert lines[0].startswith("PASS  boundary dimensions") and "exponent -0.302213" in lines[0]
    assert lines[1].startswith("PASS  halton decay")
    assert lines[2] == "2/2 checks passed"


def test_reproduce_example_reads_the_registry(monkeypatch, capsys):
    from mbonacci import cli, verify

    def fails(full):
        assert full, "ran at quick scale"

    def must_not_run(full):
        raise AssertionError("only criteria 10 and 11 belong to the example")

    monkeypatch.setattr(verify, "CHECKS", (
        verify.Check(9, "other", must_not_run),
        verify.Check(10, "ten", lambda full: f"full={full}"),
        verify.Check(11, "eleven", fails),
    ))
    rc = cli.main(["reproduce-example", "--quick"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "PASS  ten" in out and "full=False" in out
    assert "FAIL  eleven" in out and "ran at quick scale" in out
    assert "other" not in out and "1/2 checks passed" in out
    rc = cli.main(["reproduce-example"])
    out = capsys.readouterr().out
    assert rc == 0 and "full=True" in out and "2/2 checks passed" in out
