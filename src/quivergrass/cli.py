"""Command-line interface.

Subcommands: euler, fpoly, kronecker, dynkin, example4.  Exit codes are a
stable API, read from `EXIT_CODES`: 0 ok, 2 parse/usage error, 3 non-polynomial
point counts, 4 enumeration too large, 5 invariant/verification failure,
6 out of scope: a root the minor route cannot reach (`dynkin --mode both`
runs the minor route first, so it refuses such a root too).
Every flag has a JSON-config equivalent via --config; explicit flags win.
The environment variable QUIVERGRASS_CAP overrides the default enumeration
cap; --cap overrides both.  A refused walk reports the estimate the cap was
compared with: the product of Gaussian binomials over its searched vertices.
The minor route and the sampler are imported by the subcommands that run
them (`dynkin`, `example4`), so `euler`, `fpoly` and `kronecker` compile
neither.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import euler as eu
from . import kronecker as kr
from .errors import (
    CountMismatch,
    DegenerateForm,
    NonPolynomialCount,
    ParseError,
    QuivergrassError,
    ScopeError,
    SearchTooLarge,
    ShapeMismatch,
    SmoothnessFailure,
)
from .fpoly import FPolynomial
from .model import load_representation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NONPOLY = 3
EXIT_TOO_LARGE = 4
EXIT_VERIFY = 5
EXIT_SCOPE = 6

KRONECKER_MODES = ("formula", "bruteforce", "both")
DYNKIN_MODES = ("minor", "bruteforce", "both")

# an error exits with the code of the nearest of its classes listed here
EXIT_CODES = {QuivergrassError: EXIT_PARSE, ShapeMismatch: EXIT_PARSE,
              NonPolynomialCount: EXIT_NONPOLY, SearchTooLarge: EXIT_TOO_LARGE,
              ScopeError: EXIT_SCOPE, SmoothnessFailure: EXIT_VERIFY,
              CountMismatch: EXIT_VERIFY, DegenerateForm: EXIT_VERIFY}


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_int(text: str | None, flag: str, default: int | None = None) -> int | None:
    if text is None:
        return default
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"bad {flag} {text!r}; expected an integer") from exc


def _parse_cap(text: str | None) -> int | None:
    cap = _parse_int(text, "--cap")
    if cap is not None and cap < 0:
        raise ParseError(f"bad --cap {text!r}; expected a non-negative integer")
    return cap


def _parse_mode(text: str | None, modes: tuple[str, ...]) -> str:
    """--mode, default both; the one check of a mode, from a flag or a config."""
    mode = text or "both"
    if mode not in modes:
        raise ParseError(f"bad --mode {mode!r}; expected one of {', '.join(modes)}")
    return mode


def _parse_type(label: str) -> tuple[str, int]:
    m = re.fullmatch(r"([ADEade])(\d+)", label.strip())
    if not m:
        raise ParseError(f"bad type label {label!r}; expected e.g. A3 or D4")
    return m.group(1).upper(), int(m.group(2))


def _parse_lambda(text: str):
    if text is None:
        return None
    text = text.strip()
    if text.lower() == "inf":
        return kr.INFINITY
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad lambda {text!r}; expected a rational or 'inf'") from exc


def _apply_config(args: argparse.Namespace) -> None:
    """Fill in unset flags from the --config JSON document (flags win).

    A boolean flag takes JSON true or false and a value flag a string or a
    number; any other value (a list, an object or null included) is a usage
    error naming key and value.
    """
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("config document must be a JSON object")
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest == "lambda":
            dest = "lam"
        if not hasattr(args, dest):
            continue
        current = getattr(args, dest)
        # store_true flags are bool; JSON gives str, int, float, bool, list, dict or None
        want = "true or false" if isinstance(current, bool) else "a string or a number"
        if type(value) not in ((bool,) if isinstance(current, bool) else (str, int, float)):
            raise ParseError(f"config key {key!r} takes {want}, got {json.dumps(value)}")
        if current is False or current is None:  # absent from the command line
            setattr(args, dest, value if isinstance(value, bool) else str(value))


def _emit(args, text: str, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_rep(args):
    """Load --rep and keep it on args for the `example4` hint of a refusal."""
    args.loaded_rep = load_representation(args.rep)
    return args.loaded_rep


def _example4_shaped(args) -> bool:
    """Whether the loaded --rep has the plane-quartic shape of `example4`."""
    rep = getattr(args, "loaded_rep", None)
    if rep is None:
        return False
    from .sampler import is_example4_shape
    return is_example4_shape(rep)


def cmd_euler(args) -> int:
    if args.rep is None or args.e is None:
        raise ParseError("euler needs --rep and --e")
    rep = _load_rep(args)
    e = _csv_ints(args.e)
    cap = _parse_cap(args.cap)
    try:
        poly = eu.counting_polynomial(rep, e, cap)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    lines = [f"chi = {poly.chi}"]
    if args.verbose:
        qpoly = FPolynomial(1, {(k,): c for k, c in enumerate(poly.coefficients)})
        lines.append(f"counting polynomial: {qpoly.to_text(names=('q',))}")
        if poly.samples:
            lines.append("sample primes: " + ", ".join(str(p) for p, _ in poly.samples))
        else:
            _, reason, _ = eu._sampling(rep).closed_form(e, why=True)
            lines.append(f"sample primes: none ({reason})")
        lines.append(f"degree bound: {poly.degree_bound} (fitted degree {poly.degree})")
    payload = {
        "chi": poly.chi,
        "e": list(e),
        "counting_polynomial": list(poly.coefficients),
        "degree_bound": poly.degree_bound,
        "samples": [[p, c] for p, c in poly.samples],
    }
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK


def cmd_fpoly(args) -> int:
    if args.rep is None:
        raise ParseError("fpoly needs --rep")
    rep = _load_rep(args)
    cap = _parse_cap(args.cap)
    poly = eu.f_polynomial(rep, cap)
    _emit(args, poly.to_text(), poly.to_json_dict())
    return EXIT_OK


def cmd_kronecker(args) -> int:
    if args.m is None:
        raise ParseError("kronecker needs --m")
    m = _parse_int(args.m, "--m")
    if args.kind != "reg" and args.lam is not None:
        raise ParseError(f"{args.kind} takes no --lambda")
    lam = _parse_lambda(args.lam)
    try:
        kind = (kr.regular(m, lam if lam is not None else 0) if args.kind == "reg"
                else kr.KroneckerKind(args.kind, m))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    mode = _parse_mode(args.mode, KRONECKER_MODES)
    cap = _parse_cap(args.cap)
    rep = kr.build_kronecker(kind)
    d1, d2 = kr.dims_of(kind)
    box = eu.iter_box_chi(rep, cap) if mode in ("bruteforce", "both") else None
    rows = []
    mismatch = False
    for e1 in range(d1 + 1):
        for e2 in range(d2 + 1):
            row: dict = {"e": [e1, e2]}
            if mode in ("formula", "both"):
                row["formula"] = kr.kronecker_chi(kind, (e1, e2))
            if box is not None:  # the box is sampled as one set, in this order
                _, chi, err = next(box)
                if err is not None:
                    raise err
                row["bruteforce"] = chi
            if mode == "both":
                row["match"] = row["formula"] == row["bruteforce"]
                mismatch = mismatch or not row["match"]
            rows.append(row)
    width = max(len(str(r.get("formula", r.get("bruteforce", "")))) for r in rows)
    lines = [f"kind={args.kind} m={m}" + (f" lambda={lam}" if lam is not None else "")]
    for row in rows:
        cells = [f"e=({row['e'][0]},{row['e'][1]})"]
        if "formula" in row:
            cells.append(f"formula={row['formula']:>{width}}")
        if "bruteforce" in row:
            cells.append(f"bruteforce={row['bruteforce']:>{width}}")
        if "match" in row:
            cells.append("ok" if row["match"] else "MISMATCH")
        lines.append("  ".join(cells))
    payload = {"kind": args.kind, "m": m,
               "lambda": str(lam) if lam is not None else None, "rows": rows}
    _emit(args, "\n".join(lines), payload)
    return EXIT_VERIFY if mismatch else EXIT_OK


def cmd_dynkin(args) -> int:
    from . import dynkin as dk

    if args.type is None or args.coxeter is None or args.root is None:
        raise ParseError("dynkin needs --type, --coxeter and --root")
    label, rank = _parse_type(args.type)
    mode = _parse_mode(args.mode, DYNKIN_MODES)
    word = tuple(i - 1 for i in _csv_ints(args.coxeter))
    alpha = _csv_ints(args.root)
    try:
        rs = dk.root_system(label, rank)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if sorted(word) != list(range(rank)):
        raise ParseError(f"--coxeter {args.coxeter} is not a permutation of 1..{rank}")
    if tuple(alpha) not in rs.positive_roots:
        raise ParseError(f"{list(alpha)} is not a positive root of {label}{rank}")
    cap = _parse_cap(args.cap)
    seed = _parse_int(args.seed, "--seed", 0)
    payload: dict = {"type": f"{label}{rank}",
                     "coxeter": [i + 1 for i in word], "root": list(alpha)}
    lines = []
    minor_poly = brute_poly = None
    if mode in ("minor", "both"):
        minor_poly = dk.f_polynomial_via_minor(rank, word, alpha, label)
        payload["minor"] = minor_poly.to_json_dict()
        lines.append(f"minor:      {minor_poly.to_text()}")
    if mode in ("bruteforce", "both"):
        quiver = dk.orientation_from_coxeter(rs, word)
        rep = dk.dynkin_indecomposable(quiver, alpha, seed=seed)
        brute_poly = eu.f_polynomial(rep, cap)
        payload["bruteforce"] = brute_poly.to_json_dict()
        lines.append(f"bruteforce: {brute_poly.to_text()}")
    match = True
    if mode == "both":
        match = payload["match"] = minor_poly == brute_poly
        lines.append("ok" if match else "MISMATCH")
    else:
        lines = [(minor_poly if mode == "minor" else brute_poly).to_text()]
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK if match else EXIT_VERIFY


def cmd_example4(args) -> int:
    from . import sampler as sp

    seed = _parse_int(args.seed, "--seed", 42)
    bound = _parse_int(args.bound, "--bound", 5)
    primes = _csv_ints(args.primes) if args.primes is not None else sp.EXAMPLE4_PRIMES
    cap = _parse_cap(args.cap)
    try:
        rep = sp.sample_general_rep(kr.kronecker_quiver(sp.EXAMPLE4_ARROWS),
                                    sp.EXAMPLE4_DIMS, seed, bound)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    try:
        report = sp.example4_verify(rep, primes, cap)
    except DegenerateForm as exc:
        print(f"degenerate: {exc}; try another --seed", file=sys.stderr)
        return EXIT_VERIFY
    lines = [f"quartic: {report['quartic']}"]
    for p in sorted(report["smooth_over_each_p"]):
        pc = report["point_count_match"][p]
        lines.append(f"p={p}: smooth, curve points {pc['curve_points']} "
                     f"= Grassmannian points {pc['grassmannian_points']}")
    if report["chi"] is not None:
        lines.append(f"chi = {report['chi']}")
    else:
        lines.append("chi withheld (no primes requested)")
    _emit(args, "\n".join(lines), report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivergrass",
        description="Exact Euler characteristics of quiver Grassmannians.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cap", help="enumeration cap (candidates)")
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--json", action="store_true", help="emit a JSON payload")

    p = sub.add_parser("euler", help="chi(Gr_e) of a representation file")
    p.add_argument("--rep", help="representation JSON file")
    p.add_argument("--e", help="dimension vector, comma-separated")
    p.add_argument("--verbose", action="store_true")
    common(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("fpoly", help="full generating polynomial of a representation file")
    p.add_argument("--rep", help="representation JSON file")
    common(p)
    p.set_defaults(func=cmd_fpoly)

    p = sub.add_parser("kronecker", help="closed form vs brute force for Kronecker modules")
    p.add_argument("kind", choices=("pr", "inj", "reg"))
    p.add_argument("--m", help="family parameter m >= 1")
    p.add_argument("--lambda", dest="lam", help="regular parameter (rational or 'inf')")
    p.add_argument("--mode", help=f"{', '.join(KRONECKER_MODES)} (default both)")
    common(p)
    p.set_defaults(func=cmd_kronecker)

    p = sub.add_parser("dynkin", help="principal-minor vs brute-force F-polynomial")
    p.add_argument("--type", help="type label, e.g. A3")
    p.add_argument("--coxeter", help="Coxeter word, comma-separated 1-based vertices")
    p.add_argument("--root", help="positive root in simple-root coordinates")
    p.add_argument("--mode", help=f"{', '.join(DYNKIN_MODES)} (default both)")
    p.add_argument("--seed", help="seed for the indecomposable search")
    common(p)
    p.set_defaults(func=cmd_dynkin)

    p = sub.add_parser("example4", help="plane-quartic pipeline on the 4-arrow Kronecker quiver")
    p.add_argument("--seed", help="sampling seed (default 42)")
    p.add_argument("--primes", help="witness primes, comma-separated (may be empty)")
    p.add_argument("--bound", help="entry bound for sampling (default 5)")
    common(p)
    p.set_defaults(func=cmd_example4)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except QuivergrassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonPolynomialCount) and _example4_shaped(args):
            print("hint: for the plane-quartic family use the `example4` command",
                  file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
