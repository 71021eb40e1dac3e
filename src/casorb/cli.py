"""Command-line front end.

Subcommands compute the energy pieces separately or run the full
certified (2,3,7) pipeline.  All float output goes through a fixed
10-significant-digit formatter (scientific below 1e-4) so identical
configurations produce byte-identical reports.

Exit codes: 0 success, 2 domain errors (bad signature, malformed
spectrum file, an area that breaks Gauss-Bonnet for the given cone
orders, an ``energy`` run without a spectrum, ``energy --spectrum
enumerate:N``, the built-in (2,3,7) spectrum given with other cone orders,
a spectrum file whose ``# group`` line names other cone orders than the
ones given, a spectrum that cannot be certified), 1 internal numerical failure
(non-convergent quadrature).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import contributions as co
from . import triangle as tri
from .quadrature import QuadratureNonConvergence

__all__ = ["fmt10", "emit_breakdown", "run", "main"]


def fmt10(x: float) -> str:
    """10 significant digits; scientific notation for 0 < |x| < 1e-4."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.9e}"
    return f"{x:.10g}"


def _jsonable(x: float) -> float:
    # pre-round floats so dumps -> loads -> dumps is byte-stable
    return float(fmt10(x))


def breakdown_dict(b: co.EnergyBreakdown) -> dict:
    b1, b2, b3 = b.tail_components
    return {
        "identity": {
            "value": _jsonable(b.identity.value),
            "bound": _jsonable(b.identity.truncation_bound),
            "interval": [_jsonable(b.identity_interval[0]),
                         _jsonable(b.identity_interval[1])],
        },
        "elliptic": {
            "value": _jsonable(b.elliptic.value),
            "bound": _jsonable(b.elliptic.truncation_bound),
        },
        "hyperbolic": {
            "head": _jsonable(b.hyperbolic_head),
            "tail_bound": _jsonable(b.hyperbolic_tail_magnitude_bound),
            "components": {"b1": _jsonable(b1), "b2": _jsonable(b2),
                           "b3": _jsonable(b3)},
        },
        "certified_lower_bound": _jsonable(b.certified_lower_bound),
        "assumption": {
            "verified_through": b.assumption.checked_through,
            "holds": b.assumption.holds,
        },
    }


def emit_breakdown(b: co.EnergyBreakdown, fmt: str = "text") -> str:
    """Render a breakdown as text, canonical JSON, or component CSV."""
    if fmt == "json":
        return json.dumps(breakdown_dict(b), indent=2)
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

def _parse_triangle(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--triangle expects P,Q,R")
    return tuple(int(p) for p in parts)


def _signature_from_args(args, needs_area: bool = True) -> co.OrbifoldSignature:
    if args.triangle:
        return tri.triangle_signature(*_parse_triangle(args.triangle))
    if args.cone_orders:
        orders = tuple(int(x) for x in args.cone_orders.split(","))
        if args.volume is None:
            if needs_area:
                raise ValueError("--cone-orders needs --volume (the hyperbolic area)")
            # a command that never reads the area gets a placeholder
            return co.OrbifoldSignature(orders, 1.0)
        _check_gauss_bonnet(orders, args.volume)
        return co.OrbifoldSignature(orders, args.volume)
    if args.volume is not None:
        return co.OrbifoldSignature((), args.volume)
    raise ValueError("need --triangle P,Q,R, or --cone-orders (with --volume), or --volume")


def _check_gauss_bonnet(orders, area: float) -> None:
    """Refuse an area that is not 2 pi (2g - 2 + sum(1 - 1/m)) for any genus g >= 0."""
    chi = sum(1.0 - 1.0 / m for m in orders) - 2.0
    g = round((area / (2 * math.pi) - chi) / 2)
    if g < 0 or abs(area - 2 * math.pi * (2 * g + chi)) > 1e-6 * area:
        raise ValueError(
            f"--volume {area} breaks Gauss-Bonnet for cone orders "
            f"{','.join(map(str, orders))}: the area must be "
            f"2*pi*(2g - 2 + sum(1 - 1/m)) for an integer genus g >= 0")


def _spectrum_from_args(args) -> co.LengthSpectrum:
    src = args.spectrum
    if src == "table":
        return tri.to_spectrum(tri.table_corpus(), provenance="table_corpus")
    if src.startswith("enumerate:"):
        n = int(src.split(":", 1)[1])
        return tri.to_spectrum(tri.enumerate_classes(n))
    if src.startswith("file:"):
        return co.read_spectrum_file(src.split(":", 1)[1])
    raise ValueError(
        f"--spectrum must be 'table', 'enumerate:N' or 'file:PATH', got {src!r}")


def _add_signature_flags(p):
    p.add_argument("--triangle", help="triangle signature P,Q,R")
    p.add_argument("--cone-orders", help="comma-separated cone orders")
    p.add_argument("--volume", type=float, help="hyperbolic area of the quotient")


_SPECTRUM_HELP = ("table | enumerate:N | file:PATH; table and enumerate:N are "
                  "(2,3,7) spectra; enumerate:N overcounts, since words equal "
                  "in the group are not identified, so it is an exploration "
                  "source only, which energy refuses")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="casorb",
        description="Casimir energy of compact hyperbolic 2-orbifolds "
                    "from cone orders, area, and a geodesic length spectrum.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="full breakdown and certified lower bound")
    _add_signature_flags(p)
    p.add_argument("--spectrum", help=_SPECTRUM_HELP)
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
    p.add_argument("--table", action="store_true", help="use the built-in corpus")
    p.add_argument("--enumerate", type=int, metavar="N",
                   help="enumerate words up to N letters")
    p.add_argument("--file", help="read spectrum from a file")
    p.add_argument("--output", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("tail", help="index-tail bounds for the geodesic sum")
    p.add_argument("--j-lo", type=int, default=51)
    p.add_argument("--j-hi", type=int, default=10_000_000)
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-237", help="run the full (2,3,7) certification")
    p.add_argument("--output", choices=("text", "json"), default="text")
    return ap


# ----------------------------------------------------------------------
# command bodies
# ----------------------------------------------------------------------

def _cmd_energy(args) -> str:
    sig = _signature_from_args(args)
    if args.spectrum is None:
        raise ValueError("energy needs --spectrum: without the geodesic term "
                         "there is no lower bound")
    if args.spectrum.startswith("enumerate:"):
        raise ValueError(
            "energy cannot certify --spectrum enumerate:N: N <= 3 does not "
            "reach j=50, and for N >= 4 the overcounted (2,3,7) spectrum "
            "fails at j=3 of the growth assumption; use --spectrum table "
            "or file:PATH")
    if args.spectrum == "table" and sorted(sig.cone_orders) != [2, 3, 7]:
        raise ValueError(f"--spectrum {args.spectrum} is a (2,3,7) spectrum; "
                         f"give cone orders 2,3,7 or a file:PATH spectrum")
    spectrum = _spectrum_from_args(args)
    group = spectrum.group
    if (group is not None and sig.cone_orders
            and sorted(sig.cone_orders) != sorted(group)):
        orders = ",".join(map(str, group))
        raise ValueError(f"--spectrum {args.spectrum} is a ({orders}) spectrum "
                         f"by its '# group' line; give cone orders {orders}")
    b = co.casimir_energy(sig, spectrum)
    return emit_breakdown(b, args.output)


def _cmd_elliptic(args) -> str:
    sig = _signature_from_args(args, needs_area=False)
    ser = co.elliptic_contribution(sig)
    if args.output == "json":
        return json.dumps({"value": _jsonable(ser.value),
                           "bound": _jsonable(ser.truncation_bound),
                           "terms": ser.terms_used}, indent=2)
    return (f"elliptic {fmt10(ser.value)}   "
            f"(bound {fmt10(ser.truncation_bound)}, N={ser.terms_used})")


def _cmd_identity(args) -> str:
    sig = _signature_from_args(args)
    ser = co.identity_series(sig.volume)
    lo, hi = co.identity_interval(sig.volume)
    inside = lo < ser.value < hi
    if args.output == "json":
        return json.dumps({"value": _jsonable(ser.value),
                           "bound": _jsonable(ser.truncation_bound),
                           "interval": [_jsonable(lo), _jsonable(hi)],
                           "inside_interval": inside}, indent=2)
    return (f"identity {fmt10(ser.value)}   interval [{fmt10(lo)}, {fmt10(hi)}]"
            f"   inside={inside}")


def _cmd_hyperbolic(args) -> str:
    spectrum = _spectrum_from_args(args)
    ser = co.hyperbolic_contribution(spectrum)
    if args.output == "json":
        return json.dumps({"head": _jsonable(ser.value),
                           "bound": _jsonable(ser.truncation_bound),
                           "entries": len(spectrum),
                           "multiplicity": spectrum.total_multiplicity}, indent=2)
    return (f"hyperbolic head {fmt10(ser.value)}   "
            f"(bound {fmt10(ser.truncation_bound)}, "
            f"{spectrum.total_multiplicity} geodesics)")


def _cmd_spectrum(args) -> str:
    chosen = [bool(args.table), args.enumerate is not None, args.file is not None]
    if sum(chosen) != 1:
        raise ValueError("pick exactly one of --table, --enumerate N, --file PATH")
    classes = None
    if args.table:
        classes = tri.table_corpus()
        spectrum = tri.to_spectrum(classes, provenance="table_corpus")
    elif args.enumerate is not None:
        classes = tri.enumerate_classes(args.enumerate)
        spectrum = tri.to_spectrum(classes)
    else:
        spectrum = co.read_spectrum_file(args.file)

    if args.output == "json" and classes is not None:
        return tri.classes_to_json(classes)
    if args.output == "json":
        return json.dumps([{"length": _jsonable(l), "multiplicity": m}
                           for l, m in spectrum.entries], indent=2)
    if args.output == "csv":
        lines = ["length,multiplicity"]
        lines.extend(f"{fmt10(l)},{m}" for l, m in spectrum.entries)
        return "\n".join(lines)
    return "\n".join(co.spectrum_file_lines(spectrum))


def _cmd_tail(args) -> str:
    b1 = co.tail_b1_bound(args.j_lo, args.j_hi)
    b2 = co.tail_far_bound(args.j_hi)
    b3 = co.tail_higher_windings_bound(args.j_lo)
    total = b1 + b2 + b3
    if args.output == "json":
        return json.dumps({"b1": _jsonable(b1), "b2": _jsonable(b2),
                           "b3": _jsonable(b3), "total": _jsonable(total)},
                          indent=2)
    return (f"b1 {fmt10(b1)}\nb2 {fmt10(b2)}\nb3 {fmt10(b3)}\n"
            f"tail total {fmt10(total)}")


def _cmd_verify_237(args) -> str:
    sig = tri.triangle_signature(2, 3, 7)
    spectrum = tri.to_spectrum(tri.table_corpus(), provenance="table_corpus")
    b = co.casimir_energy(sig, spectrum)
    reference = (b.elliptic.value - b.elliptic.truncation_bound
                 + b.identity_interval[0] + b.hyperbolic_head
                 - b.hyperbolic_head_bound - co.REFERENCE_TAIL_237)
    if args.output == "json":
        d = breakdown_dict(b)
        d["reference_tail"] = {
            "tail_magnitude": _jsonable(co.REFERENCE_TAIL_237),
            "certified_lower_bound": _jsonable(reference),
        }
        return json.dumps(d, indent=2)
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
        print(_COMMANDS[args.command](args))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureNonConvergence, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
