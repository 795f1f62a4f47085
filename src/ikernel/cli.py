"""Command-line interface.

Exit codes: 0 pass / member, 1 fail / non-member, 2 none-up-to-bound,
3 usage error.  `verify` exits 1 if a certificate fails to re-check, is
malformed or has an unknown `cert_type`, or if a path where the report's
scenario puts a certificate holds anything but null or a certificate of the
declared `cert_type`, or, under a `pass` verdict, holds no certificate (an
emptied `[*]` list included); 3 if the report cannot be read (missing, not
UTF-8 JSON, or nested too deeply to parse), is not an object, or has a
missing or unknown verdict or scenario; and otherwise with the code `run`
gives the report's verdict.  `run --out` exits 3 if it cannot write the
report: a path that is a directory, or whose parent directory is missing
or not writable, is refused before anything runs (see `_check_out`); any
other write error is reported after the run.  `run` and `membership`
also exit 3, before anything is built, when the instance's generator
count or the summed width of the frames they would build passes
`MAX_ESTIMATE` (see `_preflight`); the library itself has no such cap.
The cap bounds summed frame columns, not time: `membership --poly
"x1^81"` at the default (1,1) instance is under it (95,284 columns) and
builds every piece through degree 81, but a non-member derives no label
expressions, so it answers in about a second.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from typing import Sequence

from .actions import build_instance
from .algebra import membership, y_positive_monomial_algebra
from .harness import (
    DEFAULT_BOUNDS,
    FAIL,
    NONE_UP_TO_BOUND,
    PASS,
    SCENARIOS,
    ScenarioConfig,
    list_scenarios,
    run_scenario,
    verify_report,
)

_VERDICT_CODES = {PASS: 0, FAIL: 1, NONE_UP_TO_BOUND: 2}

# The largest generator count or summed frame width a command may ask for.
# A (3,3,9) pass reaches 11,440 frame columns and 31 generators.
MAX_ESTIMATE = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); the contract is 3
        raise UsageError(message)


@functools.cache  # parse_args keeps no state in the parser, so calls may share it
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ikernel",
        description="Exact invariant-ring computations with re-checkable reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one verification scenario")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--n", type=int, default=1)
    run_p.add_argument("--m", type=int, default=1)
    run_p.add_argument("--max-degree", type=int, default=8)
    run_p.add_argument(
        "--bound",
        action="append",
        default=[],
        metavar="KEY=V",
        help="override a search bound (relation_degree, coeff_degree, max_power)",
    )
    run_p.add_argument("--output", choices=("text", "json"), default="text")
    run_p.add_argument("--out", help="write the report to this file")

    sub.add_parser("list", help="list the scenario catalogue")

    verify_p = sub.add_parser("verify", help="re-check every certificate in a report")
    verify_p.add_argument("report", help="path to a JSON report")

    member_p = sub.add_parser("membership", help="test membership in a standard algebra")
    member_p.add_argument("--algebra", choices=("anm", "monomial"), default="anm")
    member_p.add_argument("--n", type=int, default=1)
    member_p.add_argument("--m", type=int, default=1)
    member_p.add_argument("--poly", required=True)
    member_p.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _parse_bounds(pairs: Sequence[str]) -> dict[str, int]:
    bounds: dict[str, int] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"malformed bound {pair!r}; expected KEY=V")
        try:
            bounds[key] = int(value)
        except ValueError:
            raise UsageError(f"bound value for {key!r} must be an integer") from None
    return bounds


def _preflight(n: int, m: int, degree: int) -> None:
    """Refuse a size past `MAX_ESTIMATE` before anything is built: the
    m*2^n + 2n + 1 generators of `build_instance(n, m)`, then C(D+N, N),
    the summed width of the frames of degrees 0..D over its N = n + m + 1
    variables, D = `degree`."""
    over = f"over the cap of {MAX_ESTIMATE}"
    if n.bit_length() > MAX_ESTIMATE.bit_length() or m * 2**n + 2 * n + 1 > MAX_ESTIMATE:
        raise UsageError(f"n={n}, m={m} needs an estimated {m}*2^{n} + {2 * n + 1} generators, {over}")
    nvars, columns = n + m + 1, 1
    for k in range(1, min(nvars, degree) + 1):  # C(max + k, k), at least doubling
        columns = columns * (max(nvars, degree) + k) // k
        if columns > MAX_ESTIMATE:
            raise UsageError(f"degree {degree} at n={n}, m={m} needs an estimated "
                             f"C({degree + nvars}, {nvars}) frame columns, {over}")


def _check_out(path: str) -> None:
    """Refuse a `--out` path before anything runs when it is a directory,
    or its parent directory is missing or not writable; the message is
    the one a failed write gives."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write report to {path!r}: {os.strerror(code)}")


def _cmd_run(args) -> int:
    cfg = ScenarioConfig(
        scenario=args.scenario,
        n=args.n,
        m=args.m,
        max_degree=args.max_degree,
        bounds=_parse_bounds(args.bound),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _preflight(cfg.n, cfg.m, max(cfg.max_degree, *map(cfg.bound, DEFAULT_BOUNDS)))
    if args.out:
        _check_out(args.out)
    report = run_scenario(cfg)
    rendered = report.to_json() if args.output == "json" else report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
        except OSError as exc:  # a missing directory, a directory, no permission
            raise UsageError(f"cannot write report to {args.out!r}: {exc.strerror or exc}") from None
        print(f"{report.scenario}: {report.verdict} (report written to {args.out})")
    else:
        print(rendered)
    return _VERDICT_CODES[report.verdict]


def _cmd_list(_args) -> int:
    for entry in list_scenarios():
        print(f"{entry['name']}: {entry['description']}")
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.report, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise UsageError(f"cannot read report: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("report is not a JSON object")
    result = verify_report(data)
    if not isinstance(result.verdict, str) or result.verdict not in _VERDICT_CODES:
        raise UsageError(f"report verdict {result.verdict!r} is not one of {list(_VERDICT_CODES)}")
    if not isinstance(result.scenario, str) or result.scenario not in SCENARIOS:
        raise UsageError(f"report scenario {result.scenario!r:.80} is not in the catalogue")
    if result.ok:
        print(f"verified {result.total} certificate(s): all re-evaluate exactly ({result.verdict})")
        return _VERDICT_CODES[result.verdict]
    for failure in result.failures:
        print(failure, file=sys.stderr)
    print(f"verified {result.total} certificate(s): {len(result.failures)} failure(s)")
    return 1


def _cmd_membership(args) -> int:
    if args.n < 1 or args.m < 1:
        raise UsageError("n and m must be positive")
    _preflight(args.n, args.m, 0)
    inst = build_instance(args.n, args.m)
    try:
        candidate = inst.varsys.parse(args.poly)
    except ValueError as exc:  # a ParseError, or an integer too long to convert
        raise UsageError(str(exc)) from None
    degree = max(candidate.degree(), 1)
    _preflight(args.n, args.m, degree)
    if args.algebra == "anm":
        algebra = inst.algebra
    else:
        algebra = y_positive_monomial_algebra(
            inst.varsys, inst.x_names, inst.y_names, degree
        )
    certificate = membership(algebra, candidate)
    if certificate is None:
        print(f"{args.poly}: not a member")
        return 1
    if args.output == "json":
        print(json.dumps(certificate.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(f"{candidate} = {certificate.expression}")
    return 0


_COMMANDS = {"run": _cmd_run, "list": _cmd_list, "verify": _cmd_verify, "membership": _cmd_membership}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
