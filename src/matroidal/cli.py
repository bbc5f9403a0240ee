"""Command-line surface.  Subcommands: check, analyze, decompose,
partition, cert, verify-cert, enumerate, scan, grid.  Exit codes: 0
success/verified, 1 check failed, 2 inconclusive, 3 usage error.

``main`` is the one place where a refusal becomes an exit code:

- a library ``ValueError`` (the input is refused: not matroidal, support
  short of x1..xn, a construction that does not apply, a certificate term
  outside the target) or an invariant violation gives 1;
- a malformed ideal file, certificate document or argument gives 3;
- a search budget run-out or an inconclusive oracle gives 2.

The certificate document is the CLI's own format, not the library's:
``cert --json`` writes it (``_write_document``) and ``verify-cert`` reads
it (``_read_document``).  The reader takes ``target_ideal.n`` first and
stops at "ambient mismatch" when it is not the ideal file's; only then
does it read the sums, the generators and the layers.  A sums-only
document (``layers: null``) may leave out ``target_ideal.generators``;
when it has them they must parse and equal the ideal file's generators,
as in a layered document.  A layered document may leave out ``sums``;
when it has them they must parse and, once its layering passes, equal
its layer sums.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .decomposition import _decompose, degree2_partition
from .enumeration import (
    SCAN_BUDGET, THEOREMS, _check_cell, conjecture_scan, enumerate_matroidal,
    theorem_battery,
)
from .ideals import (
    Ideal,
    InvariantViolation,
    _canonical,
    _require_full_support,
    has_full_support,
    minimal_generators,
    mono_str,
    parse_ideal,
    parse_mono,
    witness_text,
)
from .matroids import as_matroidal, check_matroidal
from .oracle import (
    BudgetExceededError,
    Poly,
    RadicalCertificate,
    parse_poly,
    poly_str,
    verify_radical_cert,
)
from .quotients import analyze
from .svrank import (
    SEARCH_BUDGET,
    SVPartition,
    _layer_sums,
    construct_certificate,
    search_cert,
    verify_sv,
)

USAGE_ERROR = 3
INCONCLUSIVE = 2
CHECK_FAILED = 1
OK = 0

DEFAULT_CELLS = [(2, 1), (3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_within(least: int, most: int | None, name: str, rule: str):
    """An argparse type: an int in ``least..most``, else "<rule>, got N".

    ``most`` None leaves no upper bound.  ``name`` is what argparse prints
    for a value that is not an int.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < least or most is not None and value > most:
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    parse.__name__ = name
    return parse


_node_budget = _int_within(0, None, "_node_budget", "search budget must be nonnegative")
_search_size = _int_within(1, None, "_search_size", "search size must be at least 1 layer")
# The power loop is linear in the cap even where the pair budget cannot bind.
_oracle_cap = _int_within(1, 1000, "_oracle_cap", "oracle cap must be in 1..1000")


def _grid_cell(text: str) -> tuple[int, int]:
    """An argparse type: an ``n,d`` pair of integers."""
    try:
        n, d = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"a cell is two integers n,d, got {text!r}"
        ) from None
    return n, d


def _refuse_bad_cell(n: int, d: int, up_to_symmetry: bool) -> None:
    """A usage error unless the enumeration takes (n, d); call before output."""
    try:
        _check_cell(n, d, up_to_symmetry)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _var_sets(sets) -> str:
    """Variable sets as ``{x1, x2}; {x3}``."""
    return "; ".join("{" + ", ".join(f"x{v}" for v in sorted(p)) + "}" for p in sets)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _fail(args, message: str) -> int:
    _emit(args, {"error": message}, [f"error: {message}"])
    return CHECK_FAILED


def _load_ideal(path: str) -> Ideal:
    try:
        return parse_ideal(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read ideal from {path}: {exc}") from exc


def _cmd_check(args) -> int:
    ideal = _load_ideal(args.file)
    try:
        check = check_matroidal(ideal)
    except ValueError as exc:
        _emit(args, {"matroidal": False, "error": str(exc)}, [f"error: {exc}"])
        return CHECK_FAILED
    if check:
        mi = check.matroidal
        payload = {
            "matroidal": True,
            "n": ideal.n,
            "d": mi.d,
            "generators": len(ideal.gens),
        }
        _emit(args, payload, [f"matroidal: d={mi.d}, {len(ideal.gens)} generators"])
        return OK
    witness = witness_text(check.failure, check.witness)
    payload = {
        "matroidal": False,
        "n": ideal.n,
        "failure": check.failure,
        "witness": witness,
    }
    _emit(args, payload, [f"not matroidal ({check.failure}): {witness}"])
    return CHECK_FAILED


def _cmd_analyze(args) -> int:
    report = analyze(as_matroidal(_load_ideal(args.file)))
    _emit(args, report, [f"{key}={value}" for key, value in report.items()])
    return OK


def _cmd_decompose(args) -> int:
    ideal = _load_ideal(args.file)
    decomposition, mi = _decompose(ideal)
    payload: dict[str, object] = {
        "primes": [sorted(p) for p in decomposition.primes],
        "height": decomposition.height,
        "unmixed": decomposition.unmixed,
    }
    lines = [
        "primes: " + _var_sets(decomposition.primes),
        f"height={decomposition.height}",
        f"unmixed={decomposition.unmixed}",
    ]
    if mi is not None and mi.d == 2 and has_full_support(ideal):
        signature = degree2_partition(mi).signature
        payload["signature"] = list(signature)
        lines.append(f"signature={signature}")
    _emit(args, payload, lines)
    return OK


def _cmd_partition(args) -> int:
    partition = degree2_partition(as_matroidal(_load_ideal(args.file)))
    payload = {
        "parts": [sorted(p) for p in partition.parts],
        "signature": list(partition.signature),
    }
    lines = ["parts: " + _var_sets(partition.parts), f"signature={partition.signature}"]
    _emit(args, payload, lines)
    return OK


def _cmd_cert(args) -> int:
    if args.size is not None and args.construction != "search":
        raise _UsageError("--size applies only to --construction search")
    if args.budget is not None and args.construction not in ("auto", "search"):
        raise _UsageError("--budget applies only to --construction auto or search")
    ideal = _load_ideal(args.file)
    mi = as_matroidal(ideal)
    _require_full_support(ideal)
    cert = construction = None
    if args.construction != "search":
        built = construct_certificate(mi, args.construction)
        if built is not None:
            construction, cert = built
    if cert is None:
        size = args.size if args.size is not None else ideal.n - mi.d + 1
        budget = args.budget if args.budget is not None else SEARCH_BUDGET
        result = search_cert(mi, size, budget=budget)
        construction = "search"
        if result.partition is None:
            status = "exhausted" if result.exhausted else "budget_exceeded"
            payload = {
                "found": False,
                "status": status,
                "nodes": result.nodes,
                "target_size": size,
            }
            _emit(args, payload, [f"no certificate of size {size}: {status}"])
            return INCONCLUSIVE
        cert = result.partition
    # Both the ladder and the search return layerings that passed verify_sv.
    _emit(
        args,
        _write_document(cert, construction),
        [f"construction={construction}", f"size={len(cert.layers)}",
         "verified_sv=True"],
    )
    return OK


def _write_document(cert: SVPartition, construction: str) -> dict[str, object]:
    """The certificate document of a layering that has passed ``verify_sv``."""
    return {
        "target_ideal": {
            "n": cert.ideal.n,
            "generators": [mono_str(g) for g in cert.ideal.gens],
        },
        "layers": [
            [mono_str(m) for m in _canonical(layer)] for layer in cert.layers
        ],
        "sums": [poly_str(p) for p in _layer_sums(cert).polys],
        "verified_sv": True,
        "oracle_checked": False,
        "construction": construction,
    }


class _LongInt:
    """A JSON integer past Python's digit limit, kept as its length only.

    ``n`` refuses it by name, a list of strings refuses it as a
    non-string, and a key nobody reads ignores it.
    """

    __slots__ = ("digits",)

    def __init__(self, text: str):
        self.digits = len(text.lstrip("-"))


def _read_int(digits: str) -> int | _LongInt:
    try:
        return int(digits)
    except ValueError:
        return _LongInt(digits)


def _strings(value: object, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValueError(f"{what} must be a list of strings")
    return value


def _read_document(
    path: str, ideal: Ideal
) -> tuple[Ideal, tuple[Poly, ...] | None, SVPartition | None] | None:
    """``(target, sums, layering)`` from the document at ``path``.

    None when its ``n`` is not ``ideal.n``.  An absent part is None, and
    an absent target is ``ideal``.  An unreadable file or a malformed
    document is a usage error.
    """
    try:
        document = json.loads(Path(path).read_text(), parse_int=_read_int)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read certificate from {path}: {exc}") from exc
    try:
        n = document["target_ideal"]["n"]
        if isinstance(n, _LongInt):
            raise ValueError(f"n has {n.digits} digits, too many to read")
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        if n != ideal.n:
            return None
        layers = document.get("layers")
        polys = None
        if "sums" in document or layers is None:
            polys = tuple(parse_poly(s, n) for s in _strings(document["sums"], "sums"))
        target = ideal
        if layers is not None or "generators" in document["target_ideal"]:
            given = _strings(document["target_ideal"]["generators"], "target generators")
            target = minimal_generators({parse_mono(s) for s in given}, n)
        partition = None
        if layers is not None:
            if not isinstance(layers, list):
                raise ValueError("layers must be a list of layers")
            partition = SVPartition(
                target,
                tuple(
                    frozenset(parse_mono(s) for s in _strings(layer, f"layer {i}"))
                    for i, layer in enumerate(layers)
                ),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"malformed certificate document: {exc}") from exc
    return target, polys, partition


def _cmd_verify_cert(args) -> int:
    ideal = _load_ideal(args.ideal)
    read = _read_document(args.cert, ideal)
    if read is None:
        return _fail(args, "ambient mismatch")
    target, polys, partition = read
    payload: dict[str, object] = {"verified_sv": False, "oracle_checked": False}
    if target != ideal:
        return _fail(args, "certificate target differs from the ideal file")
    if partition is not None:
        check = verify_sv(partition)
        payload["verified_sv"] = bool(check)
        if not check:
            witness = witness_text(check.failure, check.witness)
            payload["failure"] = check.failure
            payload["witness"] = witness
            _emit(args, payload, [f"sv check failed ({check.failure}): {witness}"])
            return CHECK_FAILED
        cert = _layer_sums(partition)
        if polys is not None and cert.polys != polys:
            return _fail(args, "certificate sums differ from its layer sums")
    else:
        cert = RadicalCertificate(polys, ideal, "manual")
    lines = [f"verified_sv={payload['verified_sv']}"]
    if args.oracle:
        payload["oracle_checked"] = True
        try:
            result = verify_radical_cert(cert, cap=args.cap)
        except BudgetExceededError as exc:
            payload["oracle"] = {
                "verified": False,
                "reason": "pair_budget_exceeded",
                "cap": args.cap,
                "message": str(exc),
            }
            lines.append(f"oracle inconclusive: {exc}")
            _emit(args, payload, lines)
            return INCONCLUSIVE
        payload["oracle"] = {
            "verified": result.verified,
            "method": result.method,
            "cap": result.cap,
            "powers": {mono_str(g): p for g, p in result.powers.items()},
            "failures": [mono_str(g) for g in result.failures],
        }
        lines.append(
            f"oracle verified={result.verified} (cap {result.cap}, {result.method})"
        )
        _emit(args, payload, lines)
        if result.verified:
            return OK
        return INCONCLUSIVE
    _emit(args, payload, lines)
    if payload["verified_sv"]:
        return OK
    return INCONCLUSIVE  # nothing checked beyond parsing


def _cmd_enumerate(args) -> int:
    _refuse_bad_cell(args.n, args.d, args.sym)
    ideals = list(enumerate_matroidal(args.n, args.d, up_to_symmetry=args.sym))
    payload = {
        "n": args.n,
        "d": args.d,
        "up_to_symmetry": args.sym,
        "count": len(ideals),
        "ideals": [
            [mono_str(g) for g in mi.ideal.gens] for mi in ideals
        ],
    }
    lines = [f"count={len(ideals)}"]
    lines.extend(
        ", ".join(mono_str(g) for g in mi.ideal.gens) for mi in ideals
    )
    _emit(args, payload, lines)
    return OK


def _cmd_scan(args) -> int:
    _refuse_bad_cell(args.n, args.d, args.sym)
    report = conjecture_scan(args.n, args.d, budget=args.budget, up_to_symmetry=args.sym)
    payload = dataclasses.asdict(report)
    lines = [
        f"total={report.total_ideals}",
        f"certified={report.certified}",
        f"inconclusive={report.inconclusive}",
        f"elapsed={report.elapsed_seconds:.2f}s",
    ]
    for name, counts in report.theorem_counts.items():
        lines.append(
            f"{name}: pass={counts['pass']} fail={counts['fail']} skip={counts['skip']}"
        )
    _emit(args, payload, lines)
    return OK


def _cmd_grid(args) -> int:
    for n, d in args.cells:
        _refuse_bad_cell(n, d, False)
    header = f"{'cell':>7} {'ideals':>7} {'CM':>4} {'unmixed':>8} {'exact ara':>10} {'time':>7}  fails"
    print(header)
    print("-" * len(header))
    any_fail = False
    for n, d in args.cells:
        start = time.perf_counter()
        total = cm = unmixed = exact = 0
        fails: dict[str, int] = {}
        for mi in enumerate_matroidal(n, d):
            total += 1
            result = theorem_battery(mi)
            cm += result.cohen_macaulay
            unmixed += result.unmixed
            exact += bool(result.ara_exact)
            for name in THEOREMS:
                if result.verdicts[name] == "fail":
                    fails[name] = fails.get(name, 0) + 1
        elapsed = time.perf_counter() - start
        any_fail |= bool(fails)
        print(
            f"({n},{d})".rjust(7)
            + f" {total:>7} {cm:>4} {unmixed:>8} {exact:>10} {elapsed:>6.1f}s  "
            + (", ".join(f"{k}={v}" for k, v in fails.items()) or "-")
        )
    return CHECK_FAILED if any_fail else OK


def build_parser() -> _Parser:
    parser = _Parser(prog="matroidal", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func)
        return p

    p = add("check", _cmd_check, help="exchange-condition check")
    p.add_argument("file")

    p = add("analyze", _cmd_analyze, help="q, pd, depth, height, CM")
    p.add_argument("file")

    p = add("decompose", _cmd_decompose, help="minimal primes and height")
    p.add_argument("file")

    p = add("partition", _cmd_partition, help="degree-2 multipartite parts")
    p.add_argument("file")

    p = add("cert", _cmd_cert, help="construct an arithmetical-rank certificate")
    p.add_argument("file")
    p.add_argument(
        "--construction",
        choices=("auto", "veronese", "product", "degree2", "search"),
        default="auto",
    )
    p.add_argument(
        "--size",
        type=_search_size,
        default=None,
        help="search target size; only with --construction search",
    )
    p.add_argument(
        "--budget",
        type=_node_budget,
        default=None,
        help=f"search node budget (default {SEARCH_BUDGET}); "
        "only with --construction auto or search",
    )

    p = add("verify-cert", _cmd_verify_cert, help="re-verify a certificate file")
    p.add_argument("ideal")
    p.add_argument("cert")
    p.add_argument("--oracle", action="store_true", help="Groebner radical check")
    p.add_argument("--cap", type=_oracle_cap, default=8, help="largest power to try, 1..1000")

    p = add("enumerate", _cmd_enumerate, help="all matroidal ideals for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sym", action="store_true", help="one ideal per relabeling orbit")

    p = add("scan", _cmd_scan, help="theorem battery plus certificate scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--budget", type=_node_budget, default=SCAN_BUDGET, help="search node budget"
    )
    p.add_argument(
        "--no-sym",
        dest="sym",
        action="store_false",
        help="scan every labeled ideal instead of orbit representatives",
    )
    p.set_defaults(sym=True)

    # No --json: the grid prints a table only.
    p = sub.add_parser("grid", help="theorem battery over (n, d) cells")
    p.set_defaults(func=_cmd_grid, json=False)
    p.add_argument("--cells", nargs="*", type=_grid_cell, default=DEFAULT_CELLS,
                   help="grid cells as n,d pairs")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except ValueError as exc:  # a library refusal of the input
        return _fail(args, str(exc))


if __name__ == "__main__":
    sys.exit(main())
