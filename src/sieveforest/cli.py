"""Command-line front end.

Subcommands: enumerate, count, poly, fixtable, verify, orbit, biject,
sumcheck, batch; each takes only the flags it reads, and the parameter
flags are the fields of the families in `trees.FAMILIES`.  Exit codes: 0
success, 1 verification failure, 2 usage error or output that cannot be
written.  --format json|text (default text) selects the output, and csv
too for fixtable and verify; biject always prints JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import bijections, csp, maps, rotations, trees

FAMILY_NAMES = tuple(trees.FAMILIES)
# The parameter flags: every family's fields, in order of first use.
FIELDS = tuple(dict.fromkeys(name for cls in trees.FAMILIES.values()
                             for name in trees.family_fields(cls)))
ORBIT_KINDS = {"ordinary": rotations.ORDINARY, "leaf": rotations.LEAF,
               "internal": rotations.INTERNAL}


class UsageError(Exception):
    pass


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}")


def _size_guard(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name} is required here")


def _word_arg(args, name: str) -> str:
    """The required --word or --walk, refused above csp.MAX_WORD_LENGTH."""
    _require(args, name)
    text = getattr(args, name)
    if len(text) > csp.MAX_WORD_LENGTH:
        raise UsageError(f"--{name} has {len(text)} letters; at most "
                         f"MAX_WORD_LENGTH = {csp.MAX_WORD_LENGTH} are accepted")
    return text


def _params(args, label: str, family_cls) -> dict:
    """The family's parameters from the flags of the same names: each one
    it takes is required, and any other parameter flag is refused."""
    names = trees.family_fields(family_cls)
    extra = [f"--{f}" for f in FIELDS
             if f not in names and getattr(args, f) is not None]
    if extra:
        raise UsageError(f"{label} takes {' '.join('--' + n for n in names)}, "
                         f"not {' '.join(extra)}")
    _require(args, *names)
    return {name: getattr(args, name) for name in names}


def _build_family(args):
    params = _params(args, args.family, trees.FAMILIES[args.family])
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
    params = _params(args, args.theorem, csp.THEOREMS[args.theorem].family)
    return csp.build_instance(args.theorem, **params)


def _cmd_poly(args) -> int:
    inst = _instance(args)
    poly = inst.polynomial()
    _emit(args, [str(poly)], {"theorem": inst.theorem, "params": inst.params,
                              "coeffs": [str(c) for c in poly.coeffs]})
    return 0


def _report(args):
    family_cls = csp.THEOREMS[args.theorem].family
    params = _params(args, args.theorem, family_cls)
    try:
        family = family_cls(**params)
    except ValueError:
        pass  # build_instance reports it, naming the theorem
    else:  # refuse an instance too large to verify before building it
        csp.check_size_guard(family, args.size_guard)
    inst = csp.build_instance(args.theorem, **params)
    exponents = [args.e] if args.e is not None else None
    return inst, csp.verify(inst, args.mode or csp.DIVISORS,
                            size_guard=args.size_guard, exponents=exponents)


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
        if args.kind is not None or args.delta is not None:
            raise UsageError("--walk takes no --kind or --delta: a tree-rooted "
                             "map has one rotation")
        mp = maps.TreeRootedMap(_word_arg(args, "walk"))
        members = [mp]
        cur = maps.rotate_map(mp, 1)
        while cur != mp:
            members.append(cur)
            cur = maps.rotate_map(cur, 1)
    else:
        if (args.kind == "degree") != (args.delta is not None):
            raise UsageError("--kind degree takes --delta, and no other kind does")
        tree = trees.PlaneTree(_word_arg(args, "word"))
        kind = (rotations.degree_kind(args.delta) if args.delta is not None
                else ORBIT_KINDS[args.kind or "ordinary"])
        members = rotations.orbit(tree, kind)
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
    else:
        mp = maps.TreeRootedMap(_word_arg(args, "walk"))
        if target == "cubic":
            payload = maps.to_cubic(mp).descriptor()
        else:
            bt, m = maps.decompose(mp)
            payload = {"btree": bt.word, "matching": m.pairs()}
    print(json.dumps(payload))
    return 0


def _cmd_sumcheck(args) -> int:
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
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, formats=("json", "text")):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        return p

    def parameters(p, selector, names, size_guard=False):
        p.add_argument(selector, required=True, choices=names)
        for name in FIELDS:
            p.add_argument(f"--{name}", type=_parse_degrees if name == "degrees" else int)
        if size_guard:
            p.add_argument("--size-guard", type=_size_guard)

    def word_or_walk(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--word")
        group.add_argument("--walk")

    parameters(command("enumerate", _cmd_enumerate), "--family", FAMILY_NAMES,
               size_guard=True)
    parameters(command("count", _cmd_count), "--family", FAMILY_NAMES)
    parameters(command("poly", _cmd_poly), "--theorem", csp.THEOREM_IDS)
    for name, func in (("fixtable", _cmd_fixtable), ("verify", _cmd_verify)):
        p = command(name, func, ("json", "csv", "text"))
        parameters(p, "--theorem", csp.THEOREM_IDS, size_guard=True)
        exponents = p.add_mutually_exclusive_group()
        exponents.add_argument("--mode", choices=(csp.DIVISORS, csp.ALL_EXPONENTS))
        exponents.add_argument("--e", type=int)
    p = command("orbit", _cmd_orbit)
    word_or_walk(p)
    p.add_argument("--kind", choices=(*ORBIT_KINDS, "degree"))
    p.add_argument("--delta", type=int)
    p = command("biject", _cmd_biject, formats=())
    p.add_argument("--to", required=True,
                   choices=("ncm", "ncp", "dissection", "cubic", "decompose"))
    word_or_walk(p)
    p = command("sumcheck", _cmd_sumcheck)
    p.add_argument("--identity", required=True,
                   choices=(csp.REFINED_LEAVES, csp.CHU_VANDERMONDE_TM))
    p.add_argument("--n", required=True, type=int)
    command("batch", _cmd_batch, formats=()).add_argument("manifest")
    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # ValueError covers SizeGuardExceeded, InfeasibleParams and the
        # range checks of the family constructors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if sys.stdout is None:  # started with stdout closed: the output would be lost
        if sys.stderr is not None:
            print("error: stdout is closed; the output cannot be written",
                  file=sys.stderr)
        sys.exit(2)
    try:
        code = run(sys.argv[1:])
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
