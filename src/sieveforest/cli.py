"""Command-line front end.

Subcommands: enumerate, count, poly, fixtable, verify, orbit, biject,
sumcheck, batch.  Exit codes: 0 success, 1 verification failure, 2 usage
error or output that cannot be written.  Output format is selected with
--format json|csv|text (default text).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import bijections, csp, maps, rotations, trees

FAMILY_NAMES = tuple(trees.FAMILIES)


class UsageError(Exception):
    pass


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--degrees expects comma-separated integers, got {text!r}")


def _size_guard(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required here")


def _word_arg(args, name: str) -> str:
    """The required --word or --walk, refused above csp.MAX_WORD_LENGTH."""
    _require(args, name)
    text = getattr(args, name)
    if len(text) > csp.MAX_WORD_LENGTH:
        raise UsageError(f"--{name} has {len(text)} letters; at most "
                         f"MAX_WORD_LENGTH = {csp.MAX_WORD_LENGTH} are accepted")
    return text


def _params(args, family_cls) -> dict:
    """The family's parameters from the flags of the same names, all required."""
    degrees = _parse_degrees(args.degrees) if args.degrees is not None else None
    names = trees.family_fields(family_cls)
    _require(args, *names)
    return {name: degrees if name == "degrees" else getattr(args, name)
            for name in names}


def _build_family(args):
    if args.family is None:
        raise UsageError("--family is required")
    params = _params(args, trees.FAMILIES[args.family])
    return trees.family_from_descriptor({**params, "family": args.family})


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_enumerate(args) -> int:
    family = _build_family(args)
    csp.check_size_guard(family, args.size_guard)
    members = [str(m) for m in family.members()]
    _emit(args, members, members)
    return 0


def _cmd_count(args) -> int:
    family = _build_family(args)
    count = family.count()
    _emit(args, [str(count)], {"family": family.descriptor(), "count": count})
    return 0


def _instance(args):
    if args.theorem is None:
        raise UsageError("--theorem is required")
    params = _params(args, csp.THEOREMS[args.theorem].family)
    return csp.build_instance(args.theorem, **params)


def _cmd_poly(args) -> int:
    inst = _instance(args)
    poly = inst.polynomial()
    _emit(args, [str(poly)], {"theorem": inst.theorem, "params": inst.params,
                              "coeffs": [str(c) for c in poly.coeffs]})
    return 0


def _report(args):
    inst = _instance(args)
    mode = csp.ALL_EXPONENTS if args.mode == "all" else csp.DIVISORS
    exponents = [args.e] if args.e is not None else None
    return inst, csp.verify(inst, mode, size_guard=args.size_guard,
                            exponents=exponents)


def _emit_report(args, inst, report, text_lines) -> None:
    """fixtable and verify: the report as json or csv, else the text lines."""
    if args.format == "json":
        print(report.to_json())
        return
    if args.format == "csv":
        fam = json.dumps(inst.family.descriptor())
        kind = inst.kind.name if inst.kind is not None else "map"
        text_lines = ["family,kind,e,d,brute,closed,poly,agree"]
        for r in report.rows:
            text_lines.append(f"{fam!r},{kind},{r['e']},{r['d']},{r['brute']},"
                              f"{r['closed']},{r['poly_value']},{r['agree']}")
    print("\n".join(text_lines))


def _cmd_fixtable(args) -> int:
    inst, report = _report(args)
    lines = [f"theorem {inst.theorem}, order {inst.order}"]
    for r in report.rows:
        lines.append(f"e={r['e']:>3}  d={r['d']:>3}  brute={r['brute']:>8}  "
                     f"closed={r['closed']:>8}  poly={r['poly_value']:>8}  "
                     f"{'ok' if r['agree'] else 'MISMATCH'}")
    _emit_report(args, inst, report, lines)
    return 0


def _cmd_verify(args) -> int:
    inst, report = _report(args)
    counts = ",".join(str(r["brute"]) for r in report.rows)
    verdict = "PASS" if report.overall else "FAIL"
    lines = [f"{verdict} {inst.theorem} {inst.params} fixes=({counts})"]
    for r in report.rows:
        if not r["agree"]:
            lines.append(f"  e={r['e']} d={r['d']}: brute={r['brute']} "
                         f"closed={r['closed']} poly={r['poly_value']}")
    _emit_report(args, inst, report, lines)
    return 0 if report.overall else 1


def _cmd_orbit(args) -> int:
    if args.walk is not None:
        mp = maps.TreeRootedMap(_word_arg(args, "walk"))
        members = [mp]
        cur = maps.rotate_map(mp, 1)
        while cur != mp:
            members.append(cur)
            cur = maps.rotate_map(cur, 1)
    else:
        word = _word_arg(args, "word")
        kinds = {"ordinary": rotations.ORDINARY, "leaf": rotations.LEAF,
                 "internal": rotations.INTERNAL}
        if args.kind == "degree":
            _require(args, "delta")
            kind = rotations.degree_kind(args.delta)
        else:
            kind = kinds.get(args.kind or "ordinary")
            if kind is None:
                raise UsageError(f"unknown rotation kind {args.kind!r}")
        members = rotations.orbit(trees.PlaneTree(word), kind)
    members = [str(m) for m in members]
    _emit(args, members, members)
    return 0


def _cmd_biject(args) -> int:
    target = args.to
    if target in ("ncm", "ncp", "dissection"):
        t = trees.PlaneTree(_word_arg(args, "word"))
        if target == "ncm":
            payload = bijections.tree_to_ncm(t).pairs()
        elif target == "ncp":
            payload = bijections.tree_to_ncp(t).blocks()
        else:
            payload = bijections.tree_to_dissection(t).descriptor()
    elif target in ("cubic", "decompose"):
        mp = maps.TreeRootedMap(_word_arg(args, "walk"))
        if target == "cubic":
            payload = maps.to_cubic(mp).descriptor()
        else:
            bt, m = maps.decompose(mp)
            payload = {"btree": bt.word, "matching": m.pairs()}
    else:
        raise UsageError(f"unknown bijection target {args.to!r}")
    print(json.dumps(payload))
    return 0


def _cmd_sumcheck(args) -> int:
    _require(args, "identity", "n")
    ok = csp.check_sum_identity(args.identity, args.n)
    _emit(args, ["PASS" if ok else "FAIL"],
          {"identity": args.identity, "n": args.n, "ok": ok})
    return 0 if ok else 1


def _cmd_batch(args) -> int:
    try:
        with open(args.manifest) as fh:
            commands = json.load(fh)
        if not isinstance(commands, list) or not all(
                isinstance(c, list) and all(isinstance(s, str) for s in c)
                for c in commands):
            raise ValueError("manifest must be a JSON list of argv lists")
        if any(c[:1] == ["batch"] for c in commands):
            raise ValueError("manifest entries may not run batch")
    except (OSError, ValueError) as exc:
        print(f"error: bad manifest: {exc}", file=sys.stderr)
        return 2
    failed = False
    for command in commands:
        if run(command) != 0:
            failed = True
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sieveforest")
    sub = parser.add_subparsers(dest="command")

    def common(p, verifyish=False):
        p.add_argument("--theorem", choices=csp.THEOREM_IDS)
        p.add_argument("--family", choices=FAMILY_NAMES)
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--degrees")
        p.add_argument("--delta", type=int)
        p.add_argument("--i", type=int)
        p.add_argument("--j", type=int)
        p.add_argument("--b", type=int)
        p.add_argument("--e", type=int)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--size-guard", type=_size_guard, dest="size_guard")
        if verifyish:
            p.add_argument("--mode", choices=("divisors", "all"), default="divisors")

    for name, fn in (("enumerate", _cmd_enumerate), ("count", _cmd_count),
                     ("poly", _cmd_poly)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)
    for name, fn in (("fixtable", _cmd_fixtable), ("verify", _cmd_verify)):
        p = sub.add_parser(name)
        common(p, verifyish=True)
        p.set_defaults(func=fn)
    p = sub.add_parser("orbit")
    common(p)
    p.add_argument("--word")
    p.add_argument("--walk")
    p.add_argument("--kind", choices=("ordinary", "leaf", "internal", "degree"))
    p.set_defaults(func=_cmd_orbit)
    p = sub.add_parser("biject")
    common(p)
    p.add_argument("--word")
    p.add_argument("--walk")
    p.add_argument("--to", required=True,
                   choices=("ncm", "ncp", "dissection", "cubic", "decompose"))
    p.set_defaults(func=_cmd_biject)
    p = sub.add_parser("sumcheck")
    common(p)
    p.add_argument("--identity",
                   choices=(csp.REFINED_LEAVES, csp.CHU_VANDERMONDE_TM))
    p.set_defaults(func=_cmd_sumcheck)
    p = sub.add_parser("batch")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_batch)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # ValueError covers SizeGuardExceeded, InfeasibleParams and the
        # range checks of the family constructors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
    except OSError as exc:
        # stdout is closed or full.  Point it at devnull, so that the flush
        # at exit does not fail again; a closed pipe ends the run silently.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
