"""Command-line front end.

Subcommands:
    factor   factor x^(2n) - 1 over GF(q) and count the divisors
    code     build a conjucyclic code: generator and dual matrices
    weights  exact weight distribution and minimum weight
    dual     alternating dual matrix and dual-containment verdict
    quantum  derived stabilizer-code parameters [[n, k-n, d]]_q, k = 2n - deg g
    verify   run the built-in known-answer checks

The generator polynomial is given either as --g with comma-separated
coefficient codes (low degree first) or as --exps with one exponent per
canonical irreducible factor, in the order printed by `factor`.  Output is
human text by default; --format json emits one JSON object (keys sorted)
suitable for round-tripping, deterministic except for the wall-clock
elapsedMs that weights and quantum add.  elapsedMs (and the text form's
elapsed line) times the whole weight_distribution or stabilizer_params
call, so it includes the sweep kernel's first load, numpy's import (about
0.15 s): `weights --q 2 --n 1 --g 1` reports about 150 ms for a 4-word code.
Odd-p quantum runs no sweep and imports no numpy.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 not a
divisor, 4 enumeration budget exceeded, 5 not dual-containing, 6 other
domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .conju import ConjucyclicCode, is_alternating_dual_containing
from .errors import (
    BudgetExceededError,
    ConjucyclicError,
    NotADivisorError,
    NotDualContainingError,
)
from .field import tower_for_q
from .poly import factor_x2n_minus_1, poly_str
from .verify import run_checks
from .weights import DEFAULT_BUDGET, stabilizer_params, weight_distribution

EXIT_VERIFY_FAILED = 1
EXIT_NOT_A_DIVISOR = 3
EXIT_BUDGET_EXCEEDED = 4
EXIT_NOT_DUAL_CONTAINING = 5
EXIT_DOMAIN_ERROR = 6

#: Exit code per error type, most specific first.
_EXIT_CODES = (
    (NotADivisorError, EXIT_NOT_A_DIVISOR),
    (BudgetExceededError, EXIT_BUDGET_EXCEEDED),
    (NotDualContainingError, EXIT_NOT_DUAL_CONTAINING),
    ((ConjucyclicError, ValueError), EXIT_DOMAIN_ERROR),
)


def _int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _add_common(parser, needs_g: bool):
    parser.add_argument("--q", type=int, required=True, help="subfield size, a prime power")
    parser.add_argument("--n", type=int, required=True, help="code length over GF(q^2)")
    if needs_g:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--g", type=_int_list, help="generator coefficients, low degree first"
        )
        group.add_argument(
            "--exps",
            type=_int_list,
            help="exponent per canonical factor of x^(2n)-1",
        )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )


def _add_enum_flags(parser):
    parser.add_argument("--workers", type=_positive_int, default=1)
    parser.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_BUDGET,
        help="cap on the words of the enumerated side: q^min(k, 2n-k), the "
        "smaller of the code and its alternating dual (default 2^28); the "
        "sweep visits about 1/(q^e (q-1)) of them, e = 1 or 2, and for odd p "
        "with two nonzero length-n factors about 1/(q^2 (q-1)^2)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjucyclic", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor x^(2n)-1 over GF(q)")
    _add_common(p, needs_g=False)

    p = sub.add_parser("code", help="generator/dual matrices of a code")
    _add_common(p, needs_g=True)

    p = sub.add_parser("weights", help="exact weight distribution")
    _add_common(p, needs_g=True)
    _add_enum_flags(p)

    p = sub.add_parser("dual", help="alternating dual and containment verdict")
    _add_common(p, needs_g=True)

    p = sub.add_parser("quantum", help="stabilizer-code parameters")
    _add_common(p, needs_g=True)
    _add_enum_flags(p)

    p = sub.add_parser("verify", help="run built-in known-answer checks")
    _add_enum_flags(p)

    return parser


def _resolve_generator(tower, args):
    if args.g is not None:
        return [tower.check_element(c) for c in args.g]
    fac = factor_x2n_minus_1(tower, args.n)
    if len(args.exps) != fac.t:
        raise NotADivisorError(
            f"expected {fac.t} exponents (one per canonical factor), got {len(args.exps)}"
        )
    return fac.divisor(args.exps)


def _emit(args, payload: dict, text_lines) -> None:
    if args.fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _matrix_lines(tower, rows, label):
    yield f"{label}: {len(rows)} x {len(rows[0]) if rows else 0}"
    width = max((len(tower.element_str(x)) for r in rows for x in r), default=1)
    for row in rows:
        yield "  " + " ".join(tower.element_str(x).rjust(width) for x in row)


def _cmd_factor(args) -> int:
    tower = tower_for_q(args.q)
    fac = factor_x2n_minus_1(tower, args.n)
    payload = fac.to_json()
    payload.update({"q": args.q, "n": args.n, "divisorCount": fac.divisor_count})
    lines = [
        f"x^{2 * args.n} - 1 over GF({args.q}): "
        f"n0={fac.n0} ell={fac.ell} multiplicity={fac.multiplicity} t={fac.t}",
    ]
    for i, g in enumerate(fac.base, start=1):
        lines.append(f"  factor {i}: {list(g)}  =  {poly_str(tower, g)}")
    lines.append(f"divisors of x^{2 * args.n} - 1: {fac.divisor_count}")
    _emit(args, payload, lines)
    return 0


def _build_code(args) -> ConjucyclicCode:
    tower = tower_for_q(args.q)
    return ConjucyclicCode(tower, args.n, _resolve_generator(tower, args))


def _cmd_code(args) -> int:
    code = _build_code(args)
    tower = code.tower
    payload = code.to_json()
    lines = [
        f"conjucyclic code over GF({tower.q2}), length {code.n}, "
        f"size {tower.q}^{code.card_log_q}",
        f"g = {list(code.g)}  =  {poly_str(tower, code.g)}",
    ]
    lines.extend(_matrix_lines(tower, code.gen_matrix, "generator matrix"))
    lines.extend(_matrix_lines(tower, payload["dualMatrix"], "alternating dual matrix"))
    sub = code.largest_cyclic_subcode()
    lines.extend(_matrix_lines(tower, sub, "largest cyclic subcode basis"))
    payload["cyclicSubcodeBasis"] = [list(r) for r in sub]
    _emit(args, payload, lines)
    return 0


def _cmd_weights(args) -> int:
    code = _build_code(args)
    start = time.perf_counter()
    dist = weight_distribution(code, budget=args.budget, workers=args.workers)
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    payload = dist.to_json()
    payload.update({"q": args.q, "n": args.n, "g": list(code.g), "elapsedMs": elapsed_ms})
    lines = [
        f"codewords: {dist.cardinality} = {dist.q}^{dist.dim}",
        f"weight counts A_0..A_{code.n}: {dist.counts}",
        f"minimum weight: {dist.min_weight}",
        f"elapsed: {elapsed_ms} ms",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_dual(args) -> int:
    code = _build_code(args)
    tower = code.tower
    dual = code.alternating_dual_matrix()
    containing = is_alternating_dual_containing(code)
    payload = {
        "q": args.q,
        "n": args.n,
        "g": list(code.g),
        "dualMatrix": [list(r) for r in dual],
        "dualContaining": containing,
    }
    lines = list(_matrix_lines(tower, dual, "alternating dual matrix"))
    lines.append(f"dual-containing: {str(containing).lower()}")
    _emit(args, payload, lines)
    return 0


def _cmd_quantum(args) -> int:
    code = _build_code(args)
    start = time.perf_counter()
    params = stabilizer_params(code, budget=args.budget, workers=args.workers)
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    payload = {
        "q": args.q,
        "n": args.n,
        "g": list(code.g),
        "dualContaining": True,
        "stabilizer": params.to_json(),
        "elapsedMs": elapsed_ms,
    }
    lines = [
        "dual-containing: true",
        f"stabilizer code: {params} ({'pure' if params.pure else 'impure'})",
        f"elapsed: {elapsed_ms} ms",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    failures = run_checks(budget=args.budget, workers=args.workers)
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return 0


_COMMANDS = {
    "factor": _cmd_factor,
    "code": _cmd_code,
    "weights": _cmd_weights,
    "dual": _cmd_dual,
    "quantum": _cmd_quantum,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConjucyclicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
