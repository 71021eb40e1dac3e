"""Every exported name resolves, so deletions cannot leave stale exports."""

import ast
import importlib
import pathlib
import sys

import pytest

import casorb

MODULES = ("casorb", "casorb.cli", "casorb.compensated", "casorb.contributions",
           "casorb.quadrature", "casorb.specfun", "casorb.triangle")
# scipy is no dependency at all; mpmath and hypothesis are the tests' oracles
TEST_ONLY_PACKAGES = {"scipy", "mpmath", "hypothesis"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_top_level_exports_are_unique():
    assert len(casorb.__all__) == len(set(casorb.__all__))


def test_top_level_surface_is_pinned():
    # the names the certificate needs; everything else stays in its module
    assert sorted(casorb.__all__) == sorted([
        "OrbifoldSignature", "LengthSpectrum", "EnergyBreakdown",
        "casimir_energy", "triangle_signature", "table_corpus", "to_spectrum",
        "enumerate_classes", "read_spectrum_file", "__version__"])


def test_submodule_surfaces_are_pinned():
    # a name joins these only with a caller outside its own unit test
    from casorb import contributions, quadrature, specfun, triangle

    assert sorted(contributions.__all__) == sorted([
        "OrbifoldSignature", "LengthSpectrum", "SeriesEvaluation",
        "AssumptionReport", "EnergyBreakdown", "SpectrumFormatError",
        "REFERENCE_TAIL_237", "elliptic_kernel_series",
        "elliptic_kernel_truncation_bound",
        "elliptic_kernel_truncation_bound_log10", "elliptic_kernel_series_noise",
        "elliptic_contribution", "elliptic_contribution_via_integral",
        "identity_series", "identity_interval",
        "hyperbolic_n_tail_bound", "hyperbolic_contribution",
        "geodesic_contribution", "geodesic_contributions", "assumption_check",
        "tail_direct_sum", "tail_b1_bound", "tail_far_prefactor",
        "tail_far_integral", "tail_far_bound", "tail_windings_prefactor",
        "tail_windings_integral", "tail_higher_windings_bound", "tail_bounds",
        "growth_inequality_check", "casimir_energy",
        "read_spectrum_file", "spectrum_file_lines"])
    assert sorted(triangle.__all__) == sorted([
        "Mat2", "GeodesicClass", "WordError", "EllipticWordError",
        "NonHyperbolicSignatureError", "triangle_signature",
        "generators_237", "word_to_matrix", "word_length", "canonical_rotation",
        "star_word", "word_orbit", "table_corpus",
        "enumerate_classes", "to_spectrum", "classes_to_json"])
    assert sorted(specfun.__all__) == sorted([
        "FnEval", "UnsupportedOrderError", "struve_k", "csch_k1",
        "csch_k1_array", "CSCH_K1_REL_ERROR", "upper_incomplete_gamma_half",
        "clear_caches"])
    assert sorted(quadrature.__all__) == sorted([
        "QuadResult", "QuadratureNonConvergence", "KronrodGrid", "kronrod_grid",
        "adaptive_quadrature", "integrate_decaying", "elliptic_kernel_integral"])


def _fresh_modules(code):
    """Top-level packages in sys.modules after ``code`` runs in a new interpreter."""
    import os
    import subprocess

    src = pathlib.Path(casorb.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
    probe = (code + "\nimport sys\n"
             "print(*{m.split('.')[0] for m in sys.modules})")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code", [
    "import casorb",
    "from casorb import cli; assert cli.run(['verify-237', '--output', 'json']) == 0",
])
def test_no_scipy_in_fresh_interpreter(code):
    # numpy is the only numerical dependency: neither the import nor a CLI
    # run may load scipy or a package only the tests need
    assert not TEST_ONLY_PACKAGES & _fresh_modules(code)


def test_no_test_only_import_in_the_package():
    # a lazy import inside a function escapes the fresh-interpreter check
    # unless that path runs; the source itself must name none
    src = pathlib.Path(casorb.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name.split(".")[0] in TEST_ONLY_PACKAGES | {"pytest"}]
    assert not found


def test_import_leaves_logging_out():
    # logging takes milliseconds to import, and nothing in casorb logs
    assert "logging" not in _fresh_modules("import casorb")


def test_import_leaves_exact_arithmetic_out():
    # the kernel's constants are committed as hex, so no exact arithmetic
    # module is imported to build them
    assert not {"fractions", "decimal"} & _fresh_modules("import casorb")


def test_console_script_runs_verify_237(monkeypatch, capsys):
    # the entry point pyproject.toml installs as `casorb` is main itself
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    root = pathlib.Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, attr = project["project"]["scripts"]["casorb"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert callable(entry)
    monkeypatch.setattr(sys, "argv", ["casorb", "verify-237"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    golden = root / "tests" / "golden" / "verify_237.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_every_private_name_has_a_caller_in_the_package():
    # a private helper that only tests call is a test oracle, and belongs
    # with the tests; every module-level private name needs a use in src
    src = pathlib.Path(casorb.__file__).resolve().parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path.stem, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    assert [d for d in defined if d[1] not in used] == []


def test_no_extended_precision_in_the_package():
    # every figure is binary64 on every host: numpy's longdouble is 80-bit
    # on x86-64 Linux but binary64 on Windows and Apple arm64, where a
    # bound derived in it would silently be weaker
    src = pathlib.Path(casorb.__file__).resolve().parent
    assert [p.name for p in sorted(src.glob("*.py"))
            if "longdouble" in p.read_text(encoding="utf-8")] == []
