"""CLI behavior: determinism, formats, exit codes, golden outputs."""

import json
import pathlib

import pytest

from casorb import cli
from casorb.cli import fmt10, run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ENERGY_237 = ["energy", "--triangle", "2,3,7", "--spectrum", "table"]


@pytest.mark.parametrize("name, argv", [
    ("energy_text", ENERGY_237),
    ("energy_json", ENERGY_237 + ["--output", "json"]),
    ("energy_csv", ENERGY_237 + ["--output", "csv"]),
    ("verify_237", ["verify-237"]),
    ("elliptic", ["elliptic", "--triangle", "2,3,7"]),
    ("identity", ["identity", "--volume", "0.1495996"]),
    ("hyperbolic", ["hyperbolic", "--spectrum", "table"]),
    ("tail", ["tail"]),
    ("spectrum_table", ["spectrum", "--table"]),
    ("spectrum_enumerate12", ["spectrum", "--enumerate", "12", "--output", "json"]),
    ("hyperbolic_enumerate16",
     ["hyperbolic", "--spectrum", "enumerate:16", "--output", "json"]),
])
def test_golden_output(capsys, name, argv):
    # default outputs are byte-stable; a deliberate change rewrites the file
    code, out, err = _capture(capsys, argv)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


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


class TestDeterminismAndRoundTrip:
    def test_json_deterministic_and_roundtrips(self, capsys):
        code1, out1, _ = _capture(capsys, ENERGY_237 + ["--output", "json"])
        code2, out2, _ = _capture(capsys, ENERGY_237 + ["--output", "json"])
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert json.dumps(payload, indent=2) + "\n" == out1

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
        # the built-in table is refused without cone orders 2,3,7, so the
        # same spectrum goes in as a file
        code, out, _ = _capture(capsys, ["spectrum", "--table"])
        assert code == 0
        path = tmp_path / "spec.txt"
        path.write_text(out)
        code, out, _ = _capture(capsys, [
            "energy", "--volume", "1.0", "--spectrum", f"file:{path}",
            "--output", "json"])
        assert code == 0
        d = json.loads(out)
        assert d["elliptic"]["value"] == 0
        assert d["certified_lower_bound"] < 0


class TestSubcommands:
    def test_elliptic(self, capsys):
        code, out, _ = _capture(capsys, [
            "elliptic", "--triangle", "2,3,7", "--output", "json"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.875676, abs=5e-7)

    def test_identity_inside_interval(self, capsys):
        code, out, _ = _capture(capsys, [
            "identity", "--volume", "0.1495996", "--output", "json"])
        assert code == 0
        d = json.loads(out)
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
            "spectrum", "--enumerate", "12", "--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "length,multiplicity"
        first_length = float(lines[1].split(",")[0])
        assert first_length == pytest.approx(0.983987, abs=1e-5)

    def test_spectrum_table_roundtrip_through_file(self, capsys, tmp_path):
        code, out, _ = _capture(capsys, ["spectrum", "--table"])
        assert code == 0
        path = tmp_path / "spec.txt"
        path.write_text(out)
        code, out2, _ = _capture(capsys, [
            "hyperbolic", "--spectrum", f"file:{path}", "--output", "json"])
        assert code == 0
        assert json.loads(out2)["head"] == pytest.approx(-0.5680851, abs=1e-6)

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
            "energy", "--triangle", "2,3,6", "--spectrum", "table"])
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = _capture(capsys, [
            "hyperbolic", "--spectrum", "file:/nonexistent/spec.txt"])
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("this is not a spectrum\n")
        code, _, err = _capture(capsys, [
            "hyperbolic", "--spectrum", f"file:{path}"])
        assert code == 2

    def test_bad_spectrum_source(self, capsys):
        code, _, _ = _capture(capsys, [
            "hyperbolic", "--spectrum", "guess"])
        assert code == 2

    def test_missing_signature(self, capsys):
        code, _, _ = _capture(capsys, ["elliptic"])
        assert code == 2

    @pytest.mark.parametrize("command", ["energy", "identity"])
    def test_cone_orders_without_volume(self, capsys, command):
        code, out, err = _capture(capsys, [
            command, "--cone-orders", "2,3,7", "--output", "json"])
        assert code == 2
        assert out == ""
        assert "--volume" in err

    def test_elliptic_cone_orders_without_volume(self, capsys):
        code, out, _ = _capture(capsys, [
            "elliptic", "--cone-orders", "2,3,7", "--output", "json"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.875676, abs=5e-7)

    @pytest.mark.parametrize("command", ["energy", "identity"])
    def test_refuses_area_breaking_gauss_bonnet(self, capsys, tmp_path, command):
        # cone orders (2,3): genus 0 is spherical, genus 1 has area 7 pi/3
        _, spectrum, _ = _capture(capsys, ["spectrum", "--table"])
        path = tmp_path / "spec.txt"
        path.write_text(spectrum)
        extra = ["--spectrum", f"file:{path}"] if command == "energy" else []
        code, out, err = _capture(capsys, [
            command, "--cone-orders", "2,3", "--volume", "1.0", *extra])
        assert code == 2
        assert out == ""
        assert "Gauss-Bonnet" in err

    def test_gauss_bonnet_area_runs(self, capsys):
        # 0.1495996 is pi/21, the (2,3,7) area, to 7 digits
        code, out, err = _capture(capsys, [
            "identity", "--cone-orders", "2,3,7", "--volume", "0.1495996"])
        assert code == 0, err
        assert out == (GOLDEN / "identity.txt").read_text(encoding="utf-8")

    def test_refuses_enumerated_spectrum(self, capsys):
        # enumerate:N overcounts, so the growth assumption fails at j = 3
        code, out, err = _capture(capsys, [
            "energy", "--triangle", "2,3,7", "--spectrum", "enumerate:12"])
        assert code == 2
        assert out == ""
        assert "fails at j=3" in err

    def test_refuses_short_spectrum_file(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0.98,1\n")
        code, out, err = _capture(capsys, [
            "energy", "--triangle", "2,3,7", "--spectrum", f"file:{path}"])
        assert code == 2
        assert out == ""
        assert "covers j=1..1 " in err

    def test_refuses_file_spectrum_of_another_group(self, capsys, tmp_path):
        # spectrum --table names its group, and energy holds a file to it
        code, out, _ = _capture(capsys, ["spectrum", "--table"])
        assert code == 0
        path = tmp_path / "table.txt"
        path.write_text(out)
        code, out, err = _capture(capsys, [
            "energy", "--triangle", "3,3,4", "--spectrum", f"file:{path}"])
        assert code == 2
        assert out == ""
        assert "is a (2,3,7) spectrum" in err
        code, out, err = _capture(capsys, [
            "energy", "--triangle", "7,3,2", "--spectrum", f"file:{path}",
            "--output", "json"])
        assert code == 0, err
        assert json.loads(out)["certified_lower_bound"] >= 0.0115

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

    @pytest.mark.parametrize("signature", [["--triangle", "2,3,7"],
                                           ["--volume", "1.0"]])
    def test_energy_needs_spectrum(self, capsys, signature):
        code, out, err = _capture(capsys, ["energy", *signature])
        assert code == 2
        assert out == ""
        assert "--spectrum" in err

    @pytest.mark.parametrize("argv", [
        ["--triangle", "3,3,4", "--spectrum", "table"],
        ["--volume", "1.0", "--spectrum", "table"],
        ["--triangle", "2,3,8", "--spectrum", "enumerate:12"],
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
        code, _, err = _capture(capsys, ["elliptic", "--triangle", "2,3,7"])
        assert code == 1
        assert "numerical failure" in err
