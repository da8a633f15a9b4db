"""Command line front-end.

Exit codes: 0 success, 1 domain or validation error, 2 work budget
exhausted before an answer was certified, 3 usage error.

A lone -- that ends the line separates nothing and is dropped.  A plain
command line (exact option strings, their values, positionals and at
most one --) is read straight off its command's option table; help,
abbreviations, --opt=value and every usage error go through argparse,
with its messages unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from math import isfinite

from . import construct, expr
from .circle import CircleMap
from .errors import BudgetError, TautError
from .lift import DEFAULT_MAX_DEN, DEFAULT_MAX_ITER, LiftMap, rot, scl
from .plmap import PLMap
from .ring import parse_ztau, ztau_str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2)
        raise _UsageError(message)


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r:.40}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("budgets must be positive")
    return n


_Table = tuple[dict[str, argparse.Action], list[argparse.Action], dict]


def _table(parser: _Parser) -> _Table:
    """The direct reader's table of one subcommand, from its parser's own
    actions: each option string that stores one value or a constant (so
    not -h), the positionals in order, each one plain value, and every
    default."""
    options, positionals, defaults = {}, [], {}
    for action in parser._actions:
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if not action.option_strings:
            positionals.append(action)
        elif (isinstance(action, (argparse._StoreAction, argparse._StoreConstAction))
              and action.nargs in (None, 0)):
            options.update(dict.fromkeys(action.option_strings, action))
    return options, positionals, defaults


def _value(action: argparse.Action, text: str):
    """text read as argparse reads a value of action; an error where
    argparse would refuse it."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)
    return value


def _read(command: str, argv: list[str], table: _Table):
    """argv read as the command's parser reads it, or None where the
    reader does not take it exactly and argparse must: an option string
    that is not in the table, a value that starts with "-" or that its
    type or choices refuse, a "--" that ends the line or comes twice, or
    a missing or extra positional."""
    options, positionals, defaults = table
    values = dict(defaults, command=command)
    free = []
    tokens = iter(argv)
    try:
        for token in tokens:
            if token == "--":
                # argparse leaves a "--" that ends the line over unless a
                # positional comes just before it, so the reader declines
                # one that ends the line, and a second "--"
                rest = list(tokens)
                if not rest or "--" in rest:
                    return None
                free += rest
            elif token[:1] != "-" or token == "-":
                free.append(token)
            else:
                action = options.get(token)
                if action is None:
                    return None
                if action.nargs == 0:
                    values[action.dest] = action.const
                    continue
                text = next(tokens, "-")  # a missing value reads as "-"
                if text[:1] == "-":
                    return None
                values[action.dest] = _value(action, text)
        if len(free) != len(positionals):
            return None
        for action, text in zip(positionals, free):
            values[action.dest] = _value(action, text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


@cache
def _build_parser() -> tuple[_Parser, dict[str, tuple[_Parser, _Table]]]:
    """The top-level parser, and the parser of each subcommand with its
    direct reader's table, by name."""
    # every subcommand takes --json; the others only where they are read
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--json", action="store_true", dest="as_json",
                     help="machine readable output")
    den = argparse.ArgumentParser(add_help=False)
    den.add_argument("--max-den", type=_positive, default=DEFAULT_MAX_DEN)
    budgets = argparse.ArgumentParser(parents=[den], add_help=False)
    budgets.add_argument("--max-iter", type=_positive, default=DEFAULT_MAX_ITER)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    p = _Parser(prog="taut", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}

    def command(name: str, parents: list, summary: str) -> _Parser:
        commands[name] = sub.add_parser(name, parents=parents, help=summary)
        return commands[name]

    sp = command("eval", [out], "evaluate an element expression")
    sp.add_argument("expression")

    sp = command("rot", [out, budgets],
                 "certified rotation number of a lift")
    sp.add_argument("expression")

    sp = command("scl", [out, budgets],
                 "stable commutator length of a lift")
    sp.add_argument("expression")

    sp = command("check", [out, budgets],
                 "re-validate an element, result or certificate")
    sp.add_argument("target", help="JSON file or element expression")

    sp = command("connect", [out],
                 "element carrying one ring tuple to another")
    sp.add_argument("sources", help="comma separated ring points")
    sp.add_argument("targets")
    sp.add_argument("--derived", action="store_true",
                    help="return a single-commutator certificate")

    sp = command("factor", [out],
                 "local factorization certificate of a circle element")
    sp.add_argument("expression")

    sp = command("defect", [out, den, seed],
                 "defect witnesses for the rotation quasimorphism")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--search", action="store_true")
    sp.add_argument("--samples", type=_positive, default=50)

    sp = command("random", [out, seed], "seeded random element")
    sp.add_argument("--size", type=int, default=4)
    sp.add_argument("--flavor", choices=["F_tau", "T_tau", "Lift"],
                    default="T_tau")
    return p, {name: (sp, _table(sp)) for name, sp in commands.items()}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[-1:] == ["--"] and argv.count("--") == 1:
        argv = argv[:-1]
    top, commands = _build_parser()
    # A plain line of a known command is read off the command's table; any
    # other line of a known command by its own parser, which the top level
    # would hand it to; anything else (no argument, -h, an option first, an
    # unknown command) by the top level, which writes those messages.
    sub, table = commands.get(argv[0], (None, None)) if argv else (None, None)
    args = None if sub is None else _read(argv[0], argv[1:], table)
    try:
        if sub is None:
            args = top.parse_args(argv)
        elif args is None:
            args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    try:
        return _dispatch(args)
    except BudgetError as exc:
        _emit_error(args, exc, kind="budget")
        return 2
    except (TautError, ValueError, ZeroDivisionError) as exc:
        _emit_error(args, exc, kind="domain")
        return 1


def _emit_error(args, exc: Exception, kind: str) -> None:
    if args.as_json:
        payload = {"error": {"kind": kind, "type": type(exc).__name__,
                             "message": str(exc)}}
        print(expr.canonical_json(payload))
    else:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)


def _budget_kwargs(args) -> dict:
    return {"max_den": args.max_den, "max_iter": args.max_iter}


def _as_lift(element) -> LiftMap:
    if isinstance(element, PLMap):
        element = CircleMap.from_interval_map(element)
    if isinstance(element, CircleMap):
        element = LiftMap(element.table)
    return element


def _describe(element) -> str:
    if isinstance(element, PLMap):
        lo, hi = element.domain()
        return (f"interval element on [{lo}, {hi}] with "
                f"{element.num_pieces} pieces: "
                f"x {list(map(str, element.xs))} -> {list(map(str, element.ys))},"
                f" slope exponents {list(element.ks)}")
    if isinstance(element, CircleMap):
        return (f"circle element, base value {element.v}, "
                f"{element.num_pieces} pieces")
    if isinstance(element, LiftMap):
        return (f"lift, base value {element.base.v}, translation part "
                f"{element.n}, {element.num_pieces} pieces")
    return str(element)


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "eval":
        element = expr.evaluate_str(args.expression)
        print(expr.serialize(element) if args.as_json else _describe(element))
        return 0

    if cmd in ("rot", "scl"):
        f = _as_lift(expr.evaluate_str(args.expression))
        res = (rot if cmd == "rot" else scl)(f, **_budget_kwargs(args))
        if args.as_json:
            print(expr.canonical_json(res.to_json(f)))
        elif res.kind == "enclosure":
            print(f"[{res.lo}, {res.hi}] (enclosure, {res.iterations} iterations)")
        elif res.kind == "ztau":
            print(f"{ztau_str(res.value)} (exact, translation)")
        elif res.kind == "ztau-half":
            # ten significant digits, so a tiny value keeps its exponent;
            # past the float range, the exact value alone
            approx = res.approx()
            shown = f" = {approx:.10g}" if isfinite(approx) else ""
            print(f"({ztau_str(abs(res.rot.value))})/2{shown} (exact)")
        else:
            print(f"{res.value} (exact{', certified' if cmd == 'rot' else ''})")
        return 0

    if cmd == "check":
        return _run_check(args)

    if cmd == "connect":
        sources = tuple(parse_ztau(s) for s in args.sources.split(","))
        targets = tuple(parse_ztau(s) for s in args.targets.split(","))
        maker = (construct.connect_tuple_derived if args.derived
                 else construct.connect_tuple)
        cert = maker(sources, targets)
        if args.as_json:
            print(expr.serialize(cert))
        else:
            kind = "commutator " if args.derived else ""
            print(f"verified {kind}element with {cert.element.num_pieces} "
                  f"pieces carrying {args.sources} to {args.targets}")
        return 0

    if cmd == "factor":
        element = _as_lift(expr.evaluate_str(args.expression)).base
        cert = construct.factor_local(element)
        if args.as_json:
            print(expr.serialize(cert))
        else:
            print(f"verified factorization at x = {ztau_str(cert.x)}, "
                  f"y = {ztau_str(cert.y)}: u has {cert.u.num_pieces} pieces, "
                  f"v has {cert.v.num_pieces} pieces")
        return 0

    if cmd == "defect":
        if args.search:
            wit = construct.defect_witness_search(args.samples, args.seed,
                                                  max_den=args.max_den)
        else:
            wit = construct.defect_witness(args.n, max_den=args.max_den)
        if args.as_json:
            print(expr.serialize(wit))
        else:
            print(f"defect witness: delta = {wit.delta} ~ "
                  f"{float(wit.delta):.6f} (exact, lower bound for the defect)")
        return 0

    if cmd == "random":
        element = construct.random_element(args.seed, args.size, args.flavor)
        print(expr.serialize(element) if args.as_json else _describe(element))
        return 0


def _run_check(args) -> int:
    if os.path.exists(args.target):
        try:
            with open(args.target, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:  # a directory, or a file this user cannot read
            raise TautError(f"cannot read {args.target}: {exc.strerror}") from None
        label = expr.check_payload(text, _budget_kwargs(args))
    else:
        label = expr.check_expression(args.target)
    print(expr.canonical_json({"checked": label, "ok": True}) if args.as_json
          else f"ok: {label} validated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
