"""Command-line front end.

Subcommands compute the energy pieces separately or run the full
certified (2,3,7) pipeline.  A signature is ``--cone-orders`` and ``--genus``
(default 0); every command that reads a spectrum takes ``--spectrum
table|enumerate:N|file:PATH``.  Reports print floats with :func:`fmt10`, and
:func:`_dumps` rounds every report JSON float the same way; spectrum data
(``spectrum`` text and JSON, class JSON) prints ``repr``, so spectrum files
round-trip.  Identical configurations produce byte-identical output.

Exit codes: 0 success, 2 refused input (parser, signature, ``casimir_energy``),
1 numerical failure (non-convergent quadrature), 141 (128 + SIGPIPE) when
the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import contributions as co
from . import triangle as tri

__all__ = ["fmt10", "emit_breakdown", "run", "main"]


def fmt10(x: float) -> str:
    """10 significant digits; scientific notation for 0 < |x| < 1e-4."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.9e}"
    return f"{x:.10g}"


def _dumps(obj) -> str:
    """Report JSON, every float rounded to ``float(fmt10(x))`` so it round-trips."""
    def rounded(o):
        if isinstance(o, dict):
            return {k: rounded(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [rounded(v) for v in o]
        return float(fmt10(o)) if isinstance(o, float) else o
    return json.dumps(rounded(obj), indent=2)


def breakdown_dict(b: co.EnergyBreakdown) -> dict:
    """Raw report values of a breakdown; :func:`_dumps` rounds them."""
    return {
        "identity": {
            "value": b.identity.value,
            "bound": b.identity.truncation_bound,
            "interval": b.identity_interval,
        },
        "elliptic": {
            "value": b.elliptic.value,
            "bound": b.elliptic.truncation_bound,
        },
        "hyperbolic": {
            "head": b.hyperbolic_head,
            "head_bound": b.hyperbolic_head_bound,
            "tail_bound": b.hyperbolic_tail_magnitude_bound,
            "components": dict(zip(("b1", "b2", "b3"), b.tail_components)),
        },
        "certified_lower_bound": b.certified_lower_bound,
        "assumption": {
            "verified_through": b.assumption.checked_through,
            "holds": b.assumption.holds,
        },
    }


def emit_breakdown(b: co.EnergyBreakdown, fmt: str = "text") -> str:
    """Render a breakdown as text, canonical JSON, or component CSV."""
    if fmt == "json":
        return _dumps(breakdown_dict(b))
    b1, b2, b3 = b.tail_components
    if fmt == "csv":
        rows = [
            ("identity", b.identity.value, b.identity.truncation_bound),
            ("identity_interval", *b.identity_interval),
            ("elliptic", b.elliptic.value, b.elliptic.truncation_bound),
            ("hyperbolic_head", b.hyperbolic_head, b.hyperbolic_head_bound),
            ("hyperbolic_tail_bound", b.hyperbolic_tail_magnitude_bound, None),
            ("b1", b1, None),
            ("b2", b2, None),
            ("b3", b3, None),
            ("certified_lower_bound", b.certified_lower_bound, None),
        ]
        lines = ["component,value,extra"]
        for name, val, extra in rows:
            tail = "" if extra is None else fmt10(extra)
            lines.append(f"{name},{fmt10(val)},{tail}")
        lines.append(f"assumption_verified_through,{b.assumption.checked_through},"
                     f"{str(b.assumption.holds).lower()}")
        return "\n".join(lines)
    if fmt == "text":
        lo, hi = b.identity_interval
        lines = [
            f"identity            {fmt10(b.identity.value)}"
            f"   (bound {fmt10(b.identity.truncation_bound)})",
            f"identity interval   [{fmt10(lo)}, {fmt10(hi)}]",
            f"elliptic            {fmt10(b.elliptic.value)}"
            f"   (bound {fmt10(b.elliptic.truncation_bound)})",
            f"hyperbolic head     {fmt10(b.hyperbolic_head)}"
            f"   (bound {fmt10(b.hyperbolic_head_bound)})",
            f"hyperbolic tail     <= {fmt10(b.hyperbolic_tail_magnitude_bound)}",
            f"  tail components   b1={fmt10(b1)} b2={fmt10(b2)} b3={fmt10(b3)}",
            f"certified lower bound {fmt10(b.certified_lower_bound)}",
            f"growth assumption   checked through j={b.assumption.checked_through},"
            f" holds={b.assumption.holds}",
        ]
        return "\n".join(lines)
    raise ValueError(f"unknown output format {fmt!r}")


# ----------------------------------------------------------------------
# argument handling
# ----------------------------------------------------------------------

def _signature_from_args(args) -> co.OrbifoldSignature:
    if args.cone_orders is None and args.genus is None:
        raise ValueError("need --cone-orders, --genus or both")
    text = args.cone_orders
    try:
        orders = () if text is None else tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("--cone-orders expects comma-separated integers, "
                         f"got {text!r}") from None
    return co.OrbifoldSignature(orders, 0 if args.genus is None else args.genus)


def _load_spectrum(src: str):
    """(classes or None for a file, spectrum) of 'table', 'enumerate:N' or 'file:PATH'."""
    if src == "table":
        classes = tri.table_corpus()
        return classes, tri.to_spectrum(classes, provenance="table_corpus")
    if src.startswith("enumerate:"):
        n = src.split(":", 1)[1]
        try:
            n = int(n)
        except ValueError:
            raise ValueError(
                f"--spectrum enumerate:N needs an integer N, got {n!r}") from None
        classes = tri.enumerate_classes(n)
        return classes, tri.to_spectrum(classes)
    if src.startswith("file:"):
        return None, co.read_spectrum_file(src.split(":", 1)[1])
    raise ValueError(
        f"--spectrum must be 'table', 'enumerate:N' or 'file:PATH', got {src!r}")


def _add_signature_flags(p):
    p.add_argument("--cone-orders", help="comma-separated cone orders")
    p.add_argument("--genus", type=int, help="genus of the quotient (default 0)")


_SPECTRUM_HELP = ("table | enumerate:N | file:PATH; table and enumerate:N are "
                  "(2,3,7) spectra; enumerate:N overcounts, since words equal "
                  "in the group are not identified, so it is an exploration "
                  "source only, which energy refuses")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="casorb",
        description="Casimir energy of compact hyperbolic 2-orbifolds "
                    "from genus, cone orders, and a geodesic length spectrum.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="full breakdown and certified lower bound")
    _add_signature_flags(p)
    p.add_argument("--spectrum", required=True, help=_SPECTRUM_HELP)
    p.add_argument("--output", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("elliptic", help="cone-point contribution")
    _add_signature_flags(p)
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("identity", help="area contribution and bracket")
    _add_signature_flags(p)
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("hyperbolic", help="geodesic head contribution")
    p.add_argument("--spectrum", required=True, help=_SPECTRUM_HELP)
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("spectrum", help="export a length spectrum")
    p.add_argument("--spectrum", required=True, help=_SPECTRUM_HELP)
    p.add_argument("--output", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("tail", help="index-tail bounds for the geodesic sum")
    p.add_argument("--j-lo", type=int, default=co._TAIL_J_LO)
    p.add_argument("--j-hi", type=int, default=co._TAIL_J_HI)
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-237", help="run the full (2,3,7) certification")
    p.add_argument("--output", choices=("text", "json"), default="text")
    return ap


# ----------------------------------------------------------------------
# command bodies
# ----------------------------------------------------------------------

def _cmd_energy(args) -> str:
    b = co.casimir_energy(_signature_from_args(args), _load_spectrum(args.spectrum)[1])
    return emit_breakdown(b, args.output)


def _cmd_elliptic(args) -> str:
    ser = co.elliptic_contribution(_signature_from_args(args))
    if args.output == "json":
        return _dumps({"value": ser.value, "bound": ser.truncation_bound,
                       "terms": ser.terms_used})
    return (f"elliptic {fmt10(ser.value)}   "
            f"(bound {fmt10(ser.truncation_bound)}, N={ser.terms_used})")


def _cmd_identity(args) -> str:
    sig = _signature_from_args(args)
    ser = co.identity_series(sig.volume)
    lo, hi = co.identity_interval(sig.volume)
    inside = lo < ser.value < hi
    if args.output == "json":
        return _dumps({"value": ser.value, "bound": ser.truncation_bound,
                       "interval": [lo, hi], "inside_interval": inside})
    return (f"identity {fmt10(ser.value)}   interval [{fmt10(lo)}, {fmt10(hi)}]"
            f"   inside={inside}")


def _cmd_hyperbolic(args) -> str:
    spectrum = _load_spectrum(args.spectrum)[1]
    ser = co.hyperbolic_contribution(spectrum)
    if args.output == "json":
        return _dumps({"head": ser.value, "bound": ser.truncation_bound,
                       "entries": len(spectrum),
                       "multiplicity": spectrum.total_multiplicity})
    return (f"hyperbolic head {fmt10(ser.value)}   "
            f"(bound {fmt10(ser.truncation_bound)}, "
            f"{spectrum.total_multiplicity} geodesics)")


def _cmd_spectrum(args) -> str:
    classes, spectrum = _load_spectrum(args.spectrum)
    if args.output == "json" and classes is not None:
        return tri.classes_to_json(classes)
    if args.output == "json":
        # repr of each length, so the JSON rebuilds the spectrum exactly
        return json.dumps([{"length": l, "multiplicity": m}
                           for l, m in spectrum.entries], indent=2)
    if args.output == "csv":
        lines = ["length,multiplicity"]
        lines.extend(f"{fmt10(l)},{m}" for l, m in spectrum.entries)
        return "\n".join(lines)
    return "\n".join(co.spectrum_file_lines(spectrum))


def _cmd_tail(args) -> str:
    tail = co.tail_bounds(args.j_lo, args.j_hi)
    (b1, b2, b3), total = tail, sum(tail)
    if args.output == "json":
        return _dumps({"b1": b1, "b2": b2, "b3": b3, "total": total})
    return (f"b1 {fmt10(b1)}\nb2 {fmt10(b2)}\nb3 {fmt10(b3)}\n"
            f"tail total {fmt10(total)}")


def _cmd_verify_237(args) -> str:
    b = co.casimir_energy(tri.triangle_signature(2, 3, 7),
                          _load_spectrum("table")[1])
    reference = (b.certified_lower_bound + b.hyperbolic_tail_magnitude_bound
                 - co.REFERENCE_TAIL_237)
    if args.output == "json":
        d = breakdown_dict(b)
        d["reference_tail"] = {"tail_magnitude": co.REFERENCE_TAIL_237,
                               "certified_lower_bound": reference}
        return _dumps(d)
    lines = [emit_breakdown(b, "text")]
    lines.append(f"certified lower bound (recomputed tail {fmt10(b.hyperbolic_tail_magnitude_bound)}): "
                 f"{fmt10(b.certified_lower_bound)}")
    lines.append(f"certified lower bound (reference tail {fmt10(co.REFERENCE_TAIL_237)}): "
                 f"{fmt10(reference)}")
    return "\n".join(lines)


_COMMANDS = {
    "energy": _cmd_energy,
    "elliptic": _cmd_elliptic,
    "identity": _cmd_identity,
    "hyperbolic": _cmd_hyperbolic,
    "spectrum": _cmd_spectrum,
    "tail": _cmd_tail,
    "verify-237": _cmd_verify_237,
}


def run(argv=None) -> int:
    """Parse arguments, run one command, print its report; returns exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        print(_COMMANDS[args.command](args), flush=True)
        return 0
    except BrokenPipeError:          # the reader left: not refused input
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:   # QuadratureNonConvergence included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run()
    if code == 141:   # the reader is gone: the exit flush of stdout goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
