"""CLI behavior: determinism, formats, exit codes, golden outputs."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from casorb import cli
from casorb.cli import fmt10, run
from casorb.contributions import LengthSpectrum, read_spectrum_file

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ENERGY_237 = ["energy", "--cone-orders", "2,3,7", "--spectrum", "table"]


GOLDEN_CASES = [
    ("energy_text", ENERGY_237),
    ("energy_json", ENERGY_237 + ["--output", "json"]),
    ("energy_csv", ENERGY_237 + ["--output", "csv"]),
    ("verify_237", ["verify-237"]),
    ("elliptic", ["elliptic", "--cone-orders", "2,3,7"]),
    ("identity", ["identity", "--cone-orders", "2,3,7"]),
    ("hyperbolic", ["hyperbolic", "--spectrum", "table"]),
    ("tail", ["tail"]),
    ("spectrum_table", ["spectrum", "--spectrum", "table"]),
    ("spectrum_enumerate12",
     ["spectrum", "--spectrum", "enumerate:12", "--output", "json"]),
    ("hyperbolic_enumerate16",
     ["hyperbolic", "--spectrum", "enumerate:16", "--output", "json"]),
    ("help", ["--help"]),
] + [(f"help_{command.replace('-', '_')}", [command, "--help"])
     for command in ("energy", "elliptic", "identity", "hyperbolic", "spectrum",
                     "tail", "verify-237")]


@pytest.mark.parametrize("name, argv", GOLDEN_CASES)
def test_golden_output(capsys, monkeypatch, name, argv):
    # default outputs are byte-stable; a deliberate change rewrites the file.
    # argparse wraps help to the terminal width, so the width is pinned
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _capture(capsys, argv)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_every_golden_file_is_checked():
    assert ({p.stem for p in GOLDEN.glob("*.txt")}
            == {name for name, _ in GOLDEN_CASES})


def _readme_block(section, language):
    """The first ```language block under README's '## section' heading."""
    text = (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split(f"## {section}\n", 1)[1].split(f"```{language}\n", 1)[1]
    return block.split("```", 1)[0]


def _readme_commands():
    """Each `casorb ...` line of README's "Command line" block, as argv."""
    lines = _readme_block("Command line", "sh").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("casorb ")]


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _capture(capsys, ["spectrum", "--spectrum", "table"])
    assert code == 0, err
    (tmp_path / "my_spectrum.txt").write_text(out, encoding="utf-8")
    commands = _readme_commands()
    assert len(commands) == 10
    for argv in commands:
        code, _, err = _capture(capsys, argv)
        assert code == 0, (argv, err)


def test_readme_library_block_runs(capsys):
    # each value the block prints matches the number its comment quotes, to
    # the decimals the comment shows
    code = _readme_block("Library", "python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    quoted = [line.split("#", 1)[1].split()[0]
              for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(quoted) == 3
    for value, comment in zip(printed, quoted):
        decimals = len(comment.partition(".")[2])
        assert f"{float(value):.{decimals}f}" == comment, (value, comment)


class TestFormatting:
    def test_fmt10_rules(self):
        assert fmt10(0.0) == "0"
        assert fmt10(0.875676115179) == "0.8756761152"
        assert fmt10(-0.0021164021164) == "-0.002116402116"
        # strictly below 1e-4 switches to scientific
        assert "e" in fmt10(9.9e-5)
        assert "e" not in fmt10(1.0e-4)
        assert fmt10(7.496493150e-05) == "7.496493150e-05"

    def test_fmt10_idempotent_through_parse(self):
        for x in (0.8756761152, -0.5680851347, 1.384154101e-1, 7.49649315e-5):
            assert fmt10(float(fmt10(x))) == fmt10(x)


def _floats(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in _floats(item)]
    return [obj] if isinstance(obj, float) else []


REPORT_JSON_COMMANDS = [
    ENERGY_237, ["verify-237"], ["elliptic", "--cone-orders", "2,3,7"],
    ["identity", "--cone-orders", "2,3,7"],
    ["hyperbolic", "--spectrum", "table"], ["tail"],
]


class TestDeterminismAndRoundTrip:
    def test_json_deterministic_and_roundtrips(self, capsys):
        # every report JSON is canonical, its floats already fmt10-rounded
        for argv in REPORT_JSON_COMMANDS:
            code1, out1, _ = _capture(capsys, argv + ["--output", "json"])
            code2, out2, _ = _capture(capsys, argv + ["--output", "json"])
            assert code1 == code2 == 0
            assert out1 == out2
            payload = json.loads(out1)
            assert json.dumps(payload, indent=2) + "\n" == out1, argv
            floats = _floats(payload)
            assert floats, argv
            assert all(float(fmt10(x)) == x for x in floats), argv

    def test_text_deterministic(self, capsys):
        _, out1, _ = _capture(capsys, ENERGY_237)
        _, out2, _ = _capture(capsys, ENERGY_237)
        assert out1 == out2

    def test_csv_layout(self, capsys):
        code, out, _ = _capture(capsys, ENERGY_237 + ["--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "component,value,extra"
        names = [l.split(",")[0] for l in lines[1:]]
        assert names[:4] == ["identity", "identity_interval", "elliptic",
                             "hyperbolic_head"]
        assert "certified_lower_bound" in names


class TestEnergyValues:
    def test_breakdown_fields(self, capsys):
        code, out, _ = _capture(capsys, ENERGY_237 + ["--output", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["elliptic"]["value"] == pytest.approx(0.875676, abs=5e-7)
        assert d["identity"]["interval"][0] == pytest.approx(-0.00211640, abs=1e-8)
        assert d["identity"]["interval"][1] == pytest.approx(-0.00132275, abs=1e-8)
        assert d["hyperbolic"]["head"] == pytest.approx(-0.5680851, abs=1e-6)
        assert d["assumption"]["holds"] is True
        assert d["assumption"]["verified_through"] == 51

    def test_full_tail_b1_field(self, capsys):
        code, out, _ = _capture(capsys, ENERGY_237 + ["--output", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["hyperbolic"]["components"]["b1"] == pytest.approx(
            0.138415, abs=1e-5)

    def test_cone_free_run(self, capsys, tmp_path):
        # a cone-free run refuses the table's file, which names its group as
        # table does, and takes the same file without its '# group' line
        code, out, _ = _capture(capsys, ["spectrum", "--spectrum", "table"])
        assert code == 0
        assert out.startswith("# group 2,3,7\n")
        path = tmp_path / "spec.txt"
        path.write_text(out)
        code, out, err = _capture(capsys, [
            "energy", "--genus", "2", "--spectrum", f"file:{path}"])
        assert code == 2
        assert out == ""
        assert "(2,3,7) spectrum" in err
        path.write_text(path.read_text().split("\n", 1)[1])
        code, out, _ = _capture(capsys, [
            "energy", "--genus", "2", "--spectrum", f"file:{path}",
            "--output", "json"])
        assert code == 0
        d = json.loads(out)
        # genus 2 has area 4 pi, whose identity bracket starts at -8/45
        assert d["identity"]["interval"][0] == float(fmt10(-8 / 45))
        assert d["elliptic"]["value"] == 0
        assert d["certified_lower_bound"] < 0


class TestSubcommands:
    def test_elliptic(self, capsys):
        code, out, _ = _capture(capsys, [
            "elliptic", "--cone-orders", "2,3,7", "--output", "json"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.875676, abs=5e-7)

    def test_identity_inside_interval(self, capsys):
        # genus 1 with cone orders (2,3) has area 7 pi/3
        code, out, _ = _capture(capsys, [
            "identity", "--cone-orders", "2,3", "--genus", "1", "--output", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["interval"] == [float(fmt10(-14 / 135)), float(fmt10(-7 / 108))]
        assert d["inside_interval"] is True

    def test_hyperbolic(self, capsys):
        code, out, _ = _capture(capsys, [
            "hyperbolic", "--spectrum", "table", "--output", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["head"] == pytest.approx(-0.5680851, abs=1e-6)
        assert d["multiplicity"] == 51

    def test_spectrum_enumerate_csv(self, capsys):
        code, out, _ = _capture(capsys, [
            "spectrum", "--spectrum", "enumerate:12", "--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "length,multiplicity"
        first_length = float(lines[1].split(",")[0])
        assert first_length == pytest.approx(0.983987, abs=1e-5)

    def test_spectrum_table_roundtrip_through_file(self, capsys, tmp_path):
        code, out, _ = _capture(capsys, ["spectrum", "--spectrum", "table"])
        assert code == 0
        path = tmp_path / "spec.txt"
        path.write_text(out)
        code, out2, _ = _capture(capsys, [
            "hyperbolic", "--spectrum", f"file:{path}", "--output", "json"])
        assert code == 0
        assert json.loads(out2)["head"] == pytest.approx(-0.5680851, abs=1e-6)

    def test_spectrum_file_json_rebuilds_the_spectrum(self, capsys, tmp_path):
        # the file's JSON carries its group and prints every length in full,
        # as the table's JSON does, so it rebuilds the spectrum on its own
        code, out, _ = _capture(capsys, ["spectrum", "--spectrum", "table"])
        assert code == 0
        path = tmp_path / "spec.txt"
        path.write_text(out)
        code, out, _ = _capture(capsys, [
            "spectrum", "--spectrum", f"file:{path}", "--output", "json"])
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["group", "entries"]
        assert data["group"] == [2, 3, 7]
        rows = data["entries"]
        rebuilt = LengthSpectrum(
            tuple((r["length"], r["multiplicity"]) for r in rows),
            group=data["group"])
        assert rebuilt == read_spectrum_file(path)
        # a file without its '# group' line prints a null group
        lines = path.read_text().splitlines()
        path.write_text("\n".join(l for l in lines if not l.startswith("# group")))
        code, out, _ = _capture(capsys, [
            "spectrum", "--spectrum", f"file:{path}", "--output", "json"])
        assert code == 0
        assert json.loads(out) == {"group": None, "entries": rows}
        code, out, _ = _capture(capsys, [
            "spectrum", "--spectrum", "table", "--output", "json"])
        assert code == 0
        assert [r["length"] for r in rows] == [r["length"] for r in json.loads(out)]

    def test_tail_command(self, capsys):
        code, out, _ = _capture(capsys, [
            "tail", "--j-hi", "100000", "--output", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["b2"] > 0 and d["b3"] == pytest.approx(7.4965e-5, abs=1e-8)

    def test_tail_b1_matches_energy(self, capsys):
        code1, tail_out, _ = _capture(capsys, ["tail", "--output", "json"])
        code2, energy_out, _ = _capture(capsys, ENERGY_237 + ["--output", "json"])
        assert code1 == code2 == 0
        b1 = json.loads(energy_out)["hyperbolic"]["components"]["b1"]
        assert json.loads(tail_out)["b1"] == b1

    def test_verify_237(self, capsys):
        code, out, _ = _capture(capsys, ["verify-237"])
        assert code == 0
        assert "reference tail 0.293867" in out
        assert "recomputed tail" in out


class TestExitCodes:
    def test_non_hyperbolic_signature(self, capsys):
        code, _, err = _capture(capsys, [
            "energy", "--cone-orders", "2,3,6", "--spectrum", "table"])
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = _capture(capsys, [
            "hyperbolic", "--spectrum", "file:/nonexistent/spec.txt"])
        assert code == 2

    def test_closed_stdout_is_not_refused_input(self):
        # the JSON (about 110 kB) outgrows the pipe, so the reader's early
        # close reaches the writer as EPIPE: exit 128 + SIGPIPE, no message
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "casorb.cli", "spectrum", "--spectrum",
             "enumerate:14", "--output", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("this is not a spectrum\n")
        code, _, err = _capture(capsys, [
            "hyperbolic", "--spectrum", f"file:{path}"])
        assert code == 2

    @pytest.mark.parametrize("length", ["1e308", "1.7976931348623157e308"])
    def test_longest_lengths_take_one_winding(self, capsys, tmp_path, length):
        # pytest turns RuntimeWarning into an error, so an overflow in the
        # winding majorant would fail the run instead of printing a head
        path = tmp_path / "long.txt"
        path.write_text(f"# group 2,3,7\n{length},1\n")
        code, out, err = _capture(capsys, [
            "hyperbolic", "--spectrum", f"file:{path}", "--output", "json"])
        assert (code, err) == (0, "")
        d = json.loads(out)
        assert (d["head"], d["bound"], d["entries"]) == (0.0, 0.0, 1)

    def test_group_of_another_genus_is_refused(self, capsys):
        # the table is the genus-0 (2,3,7) spectrum; genus 1 has other geodesics
        code, out, err = _capture(capsys, [
            "energy", "--cone-orders", "2,3,7", "--genus", "1", "--spectrum", "table"])
        assert (code, out) == (2, "")
        assert err == ("error: the spectrum is a genus-0 (2,3,7) spectrum, but "
                       "the genus is 1; no certified bound\n")

    def test_group_of_a_non_hyperbolic_orbifold_is_refused(self, capsys, tmp_path):
        # the genus-0 (2,3,6) orbifold is Euclidean: the file is refused at
        # its group line, even by a command that takes no signature
        path = tmp_path / "spec.txt"
        path.write_text("# group 2,3,6\n1.5,2\n")
        code, out, err = _capture(capsys, [
            "spectrum", "--spectrum", f"file:{path}"])
        assert (code, out) == (2, "")
        assert err == (f"error: {path}:1: genus 0 with cone orders 2,3,6 is not "
                       "hyperbolic: 2g - 2 + sum(1 - 1/m) <= 0\n")

    @pytest.mark.parametrize("length", ["1e-300", "5e-324"])
    def test_too_short_length_is_a_numerical_failure(self, capsys, tmp_path, length):
        # refused before the majorant runs, so no RuntimeWarning precedes
        # the one line on stderr
        path = tmp_path / "short.txt"
        path.write_text(f"# group 2,3,7\n{length},1\n")
        code, out, err = _capture(capsys, [
            "hyperbolic", "--spectrum", f"file:{path}"])
        assert (code, out) == (1, "")
        assert err == "numerical failure: winding sum did not reach tolerance\n"

    def test_bad_spectrum_source(self, capsys):
        code, _, _ = _capture(capsys, [
            "hyperbolic", "--spectrum", "guess"])
        assert code == 2

    @pytest.mark.parametrize("command", ["energy", "elliptic", "identity"])
    @pytest.mark.parametrize("flags, message", [
        (["--cone-orders", "", "--genus", "1"], "--cone-orders expects"),
    ], ids=["cone-orders"])
    def test_empty_signature_flag_is_refused(self, capsys, command, flags, message):
        # an empty value is malformed, not absent
        extra = ["--spectrum", "table"] if command == "energy" else []
        code, out, err = _capture(capsys, [command, *flags, *extra])
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("sources", [[]], ids=["none"])
    def test_spectrum_needs_exactly_one_source(self, capsys, sources):
        code, out, err = _capture(capsys, ["spectrum", *sources])
        assert code == 2
        assert out == ""
        assert "the following arguments are required: --spectrum" in err

    @pytest.mark.parametrize("argv", [
        ["energy", "--triangle", "2,3,7", "--spectrum", "table"],
        ["elliptic", "--triangle", "2,3,7"],
        ["identity", "--triangle", "2,3,7"],
        ["spectrum", "--spectrum", "table", "--table"],
        ["spectrum", "--spectrum", "table", "--enumerate", "12"],
        ["spectrum", "--spectrum", "table", "--file", "x.txt"],
    ], ids=["energy-triangle", "elliptic-triangle", "identity-triangle",
            "spectrum-table", "spectrum-enumerate", "spectrum-file"])
    def test_removed_input_spelling(self, capsys, argv):
        # each input has one spelling: --cone-orders and --genus, --spectrum
        code, out, err = _capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum"], ["hyperbolic"], ["energy", "--cone-orders", "2,3,7"]],
        ids=["spectrum", "hyperbolic", "energy"])
    @pytest.mark.parametrize("n", ["abc", ""])
    def test_enumerate_needs_an_integer(self, capsys, argv, n):
        code, out, err = _capture(capsys, [*argv, "--spectrum", f"enumerate:{n}"])
        assert code == 2
        assert out == ""
        assert f"--spectrum enumerate:N needs an integer N, got {n!r}" in err

    def test_missing_signature(self, capsys):
        code, _, err = _capture(capsys, ["elliptic"])
        assert code == 2
        assert "need --cone-orders, --genus or both" in err

    @pytest.mark.parametrize("command", ["energy", "elliptic", "identity"])
    def test_cone_orders_without_volume(self, capsys, command):
        # no area is given: cone orders alone are genus 0, so 2,3,7 is the
        # (2,3,7) triangle and Gauss-Bonnet gives its area; their order is
        # immaterial, to the last printed byte
        extra = ["--spectrum", "table"] if command == "energy" else []
        outputs = ["text", "json", "csv"] if command == "energy" else ["text", "json"]
        for output in outputs:
            code, out, err = _capture(capsys, [
                command, "--cone-orders", "7,3,2", *extra, "--output", output])
            assert code == 0, err
            assert out == _capture(capsys, [
                command, "--cone-orders", "2,3,7", *extra, "--output", output])[1]

    def test_elliptic_cone_orders_without_volume(self, capsys):
        code, out, _ = _capture(capsys, [
            "elliptic", "--cone-orders", "2,3,7", "--output", "json"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.875676, abs=5e-7)

    @pytest.mark.parametrize("command", ["energy", "identity", "elliptic"])
    def test_refuses_area_breaking_gauss_bonnet(self, capsys, tmp_path, command):
        _, spectrum, _ = _capture(capsys, ["spectrum", "--spectrum", "table"])
        path = tmp_path / "spec.txt"
        path.write_text(spectrum)
        extra = ["--spectrum", f"file:{path}"] if command == "energy" else []
        # Gauss-Bonnet gives the area, and the signature refuses one that
        # is not positive: (2,3) at genus 0 is spherical, a bare torus flat
        for flags, message in (
                (["--cone-orders", "2,3"],
                 "genus 0 with cone orders 2,3 is not hyperbolic"),
                (["--genus", "1"], "genus 1 with cone orders none is not hyperbolic"),
                (["--genus", "-1"], "genus must be an int in [0, 1e300], got -1"),
                (["--genus", str(10**301)], "genus must be an int in [0, 1e300], got 1000"),
                (["--genus", "1.5"], "argument --genus: invalid int value: '1.5'"),
                (["--cone-orders", "0,3,7"], "cone orders must be integers >= 2")):
            code, out, err = _capture(capsys, [command, *flags, *extra])
            assert code == 2, (flags, err)
            assert out == ""
            assert message in err

    def test_gauss_bonnet_area_runs(self, capsys):
        # genus 0 with cone orders 2,3,7 has the (2,3,7) area pi/21
        code, out, err = _capture(capsys, [
            "identity", "--cone-orders", "2,3,7"])
        assert code == 0, err
        assert out == (GOLDEN / "identity.txt").read_text(encoding="utf-8")

    def test_refuses_enumerated_spectrum(self, capsys):
        # enumerate:N overcounts, so the growth assumption fails at j = 3
        code, out, err = _capture(capsys, [
            "energy", "--cone-orders", "2,3,7", "--spectrum", "enumerate:12"])
        assert code == 2
        assert out == ""
        assert "fails at j=3" in err

    def test_reports_group_before_growth(self, capsys):
        # casimir_energy checks the group before the growth assumption
        code, out, err = _capture(capsys, [
            "energy", "--cone-orders", "2,3,8", "--spectrum", "enumerate:12"])
        assert code == 2
        assert out == ""
        assert "is a (2,3,7) spectrum" in err
        assert "fails at j=3" not in err

    def test_refuses_short_spectrum_file(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("# group 2,3,7\n0.98,1\n")
        code, out, err = _capture(capsys, [
            "energy", "--cone-orders", "2,3,7", "--spectrum", f"file:{path}"])
        assert code == 2
        assert out == ""
        assert "covers j=1..1 " in err

    def test_refuses_file_spectrum_of_another_group(self, capsys, tmp_path):
        # spectrum --spectrum table names its group, and energy holds a file to it
        code, out, _ = _capture(capsys, ["spectrum", "--spectrum", "table"])
        assert code == 0
        path = tmp_path / "table.txt"
        path.write_text(out)
        code, out, err = _capture(capsys, [
            "energy", "--cone-orders", "3,3,4", "--spectrum", f"file:{path}"])
        assert code == 2
        assert out == ""
        assert "is a (2,3,7) spectrum" in err
        code, out, err = _capture(capsys, [
            "energy", "--cone-orders", "7,3,2", "--spectrum", f"file:{path}",
            "--output", "json"])
        assert code == 0, err
        assert json.loads(out)["certified_lower_bound"] >= 0.0115

    def test_refuses_file_spectrum_naming_no_group(self, capsys, tmp_path):
        # the table's lines without '# group 2,3,7' fit no cone orders
        code, out, _ = _capture(capsys, ["spectrum", "--spectrum", "table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# group 2,3,7"
        path = tmp_path / "table.txt"
        path.write_text("\n".join(lines[1:]) + "\n")
        for triangle in ("3,3,4", "2,3,7"):
            code, out, err = _capture(capsys, [
                "energy", "--cone-orders", triangle, "--spectrum", f"file:{path}",
                "--output", "csv"])
            assert code == 2
            assert out == ""
            assert "names no group" in err

    def test_group_refusal_messages(self, capsys, tmp_path):
        # both group refusals reach stderr whole, with exit code 2
        path = tmp_path / "unnamed.txt"
        path.write_text("1.5,2\n")
        for argv, message in (
                (["--cone-orders", "2,3,8", "--spectrum", "table"],
                 "the spectrum is a (2,3,7) spectrum, but the cone orders "
                 "are 2,3,8; no certified bound"),
                (["--cone-orders", "2,3,7", "--spectrum", f"file:{path}"],
                 "the spectrum names no group, but the cone orders are "
                 "2,3,7; no certified bound")):
            code, out, err = _capture(capsys, ["energy", *argv])
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("row, message", [
        ("1.5,0", "multiplicities must be positive integers"),
        ("-1.5,2", "lengths must be positive and finite"),
        ("nan,1", "lengths must be positive and finite"),
        ("inf,1", "lengths must be positive and finite"),
    ], ids=["zero-multiplicity", "negative", "nan", "inf"])
    def test_refuses_file_row_the_spectrum_type_refuses(self, capsys, tmp_path,
                                                        row, message):
        path = tmp_path / "spec.txt"
        path.write_text(f"# group 2,3,7\n0.98,1\n{row}\n")
        code, out, err = _capture(capsys, [
            "energy", "--cone-orders", "2,3,7", "--spectrum", f"file:{path}"])
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("j_hi", [10**305, 10**400], ids=["1e305", "1e400"])
    def test_tail_past_proved_kernel_range(self, capsys, j_hi):
        # z_J = 354.4 and 463.9: past z = 350, where csch_k1's bound ends
        code, out, err = _capture(capsys, ["tail", "--j-hi", str(j_hi)])
        assert code == 2
        assert out == ""
        assert "past 350" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = _capture(capsys, ["energy", "--frobnicate"])
        assert code == 2

    @pytest.mark.parametrize("command", [ENERGY_237, ["verify-237"]],
                             ids=["energy", "verify-237"])
    @pytest.mark.parametrize("flag", [["--N", "40"], ["--n-tail-tol", "1e-12"],
                                      ["--tail-j-hi", "100000"]],
                             ids=["N", "n-tail-tol", "tail-j-hi"])
    def test_removed_series_flag(self, capsys, command, flag):
        code, out, err = _capture(capsys, [*command, *flag])
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("signature", [["--cone-orders", "2,3,7"],
                                           ["--genus", "2"]])
    def test_energy_needs_spectrum(self, capsys, signature):
        code, out, err = _capture(capsys, ["energy", *signature])
        assert code == 2
        assert out == ""
        assert "--spectrum" in err

    @pytest.mark.parametrize("argv", [
        ["--cone-orders", "3,3,4", "--spectrum", "table"],
        ["--genus", "2", "--spectrum", "table"],
        ["--cone-orders", "2,3,8", "--spectrum", "enumerate:12"],
    ])
    def test_refuses_237_spectrum_for_other_signature(self, capsys, argv):
        code, out, err = _capture(capsys, ["energy", *argv, "--output", "csv"])
        assert code == 2
        assert out == ""
        assert "(2,3,7) spectrum" in err

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        from casorb.quadrature import QuadratureNonConvergence

        def boom(sig, N=60):
            raise QuadratureNonConvergence("forced for the exit-code contract")

        monkeypatch.setattr(cli.co, "elliptic_contribution", boom)
        code, _, err = _capture(capsys, ["elliptic", "--cone-orders", "2,3,7"])
        assert code == 1
        assert "numerical failure" in err

    def test_unconverged_struve_exit_code(self, capsys, monkeypatch):
        from casorb import specfun
        from casorb.quadrature import QuadResult

        def unconverged(f, edges, **kwargs):
            return QuadResult(1.0, 1.0, 15, converged=False)

        specfun.clear_caches()
        monkeypatch.setattr(specfun, "adaptive_quadrature", unconverged)
        try:
            code, out, err = _capture(capsys, ["elliptic", "--cone-orders", "2,3,7"])
            cached = specfun._struve_k_dispatch.cache_info().currsize
        finally:
            specfun.clear_caches()   # no other test may see what it cached
        assert code == 1
        assert out == ""
        assert "numerical failure" in err
        assert cached == 0
