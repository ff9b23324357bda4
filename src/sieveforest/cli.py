"""Command-line front end.

Subcommands: enumerate, count, poly, fixtable, verify, orbit, biject,
sumcheck, batch.  Exit codes: 0 success, 1 verification failure, 2 usage
error.  Output format is selected with --format json|csv|text (default text).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import bijections, csp, maps, rotations, trees

FAMILY_NAMES = ("all_trees", "by_leaves", "leaf_rooted", "internal_rooted",
                "by_degrees", "leaf_rooted_deg", "internal_rooted_deg",
                "root_degree", "bt", "bt_deg", "tm_ij", "tm_n", "tm_deg", "ncm")


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


def _build_family(args):
    name = args.family
    if name is None:
        raise UsageError("--family is required")
    degrees = _parse_degrees(args.degrees) if args.degrees else None
    try:
        if name == "all_trees":
            _require(args, "n")
            return trees.AllTrees(args.n)
        if name == "by_leaves":
            _require(args, "n", "k")
            return trees.ByLeaves(args.n, args.k)
        if name == "leaf_rooted":
            _require(args, "n", "k")
            return trees.LeafRooted(args.n, args.k)
        if name == "internal_rooted":
            _require(args, "n", "k")
            return trees.InternalRooted(args.n, args.k)
        if name == "by_degrees":
            _require(args, "degrees")
            return trees.ByDegrees(degrees)
        if name == "leaf_rooted_deg":
            _require(args, "degrees")
            return trees.LeafRootedDeg(degrees)
        if name == "internal_rooted_deg":
            _require(args, "degrees")
            return trees.InternalRootedDeg(degrees)
        if name == "root_degree":
            _require(args, "degrees", "delta")
            return trees.RootDegree(degrees, args.delta)
        if name == "bt":
            _require(args, "b", "n")
            return maps.BT(args.b, args.n)
        if name == "bt_deg":
            _require(args, "b", "degrees")
            return maps.BTDeg(args.b, degrees)
        if name == "tm_ij":
            _require(args, "i", "j")
            return maps.TMij(args.i, args.j)
        if name == "tm_n":
            _require(args, "n")
            return maps.TMn(args.n)
        if name == "tm_deg":
            _require(args, "j", "degrees")
            return maps.TMDeg(args.j, degrees)
        if name == "ncm":
            _require(args, "j")
            return maps.NCM(args.j)
    except ValueError as exc:
        raise UsageError(str(exc))
    raise UsageError(f"unknown family {name!r}")


def _theorem_params(args) -> dict:
    t = args.theorem
    if t is None:
        raise UsageError("--theorem is required")
    degrees = _parse_degrees(args.degrees) if args.degrees else None
    need = {"ord": ("n",), "ord_leaves": ("n", "k"), "ext": ("n", "k"),
            "int": ("n", "k"), "ord_deg": ("degrees",),
            "delta": ("degrees", "delta"), "int_deg": ("degrees",),
            "btij": ("b", "n"), "btd": ("b", "degrees"),
            "tmij": ("i", "j"), "tmn": ("n",), "tmd": ("j", "degrees"),
            "ncm_rotation": ("j",)}
    if t not in need:
        raise UsageError(f"unknown theorem {t!r}")
    _require(args, *need[t])
    params = {}
    for name in need[t]:
        params[name] = degrees if name == "degrees" else getattr(args, name)
    return params


def _member_text(member) -> str:
    if isinstance(member, (trees.PlaneTree, maps.BTreeWord, maps.TreeRootedMap)):
        return member.word
    if isinstance(member, maps.NonCrossingMatching):
        return json.dumps(member.pairs())
    return str(member)


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _enumerate_members(family):
    if isinstance(family, trees.TreeFamily):
        return list(trees.enumerate_family(family))
    return list(maps.enumerate_maps(family))


def _closed_count(family) -> int:
    if isinstance(family, trees.TreeFamily):
        return trees.closed_count(family)
    return maps.closed_count_maps(family)


def _cmd_enumerate(args) -> int:
    family = _build_family(args)
    csp.check_size_guard(family, args.size_guard)
    members = _enumerate_members(family)
    _emit(args, [_member_text(m) for m in members],
          [_member_text(m) for m in members])
    return 0


def _cmd_count(args) -> int:
    family = _build_family(args)
    count = _closed_count(family)
    _emit(args, [str(count)], {"family": family.descriptor(), "count": count})
    return 0


def _instance(args):
    try:
        return csp.build_instance(args.theorem, **_theorem_params(args))
    except csp.InfeasibleParams as exc:
        raise UsageError(str(exc))


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


def _fix_csv(inst, report) -> list[str]:
    fam = json.dumps(inst.family.descriptor())
    kind = inst.kind.name if inst.kind is not None else "map"
    lines = ["family,kind,e,d,brute,closed,poly,agree"]
    for r in report.rows:
        lines.append(f"{fam!r},{kind},{r['e']},{r['d']},{r['brute']},"
                     f"{r['closed']},{r['poly_value']},{r['agree']}")
    return lines


def _cmd_fixtable(args) -> int:
    inst, report = _report(args)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print("\n".join(_fix_csv(inst, report)))
    else:
        print(f"theorem {inst.theorem}, order {inst.order}")
        for r in report.rows:
            print(f"e={r['e']:>3}  d={r['d']:>3}  brute={r['brute']:>8}  "
                  f"closed={r['closed']:>8}  poly={r['poly_value']:>8}  "
                  f"{'ok' if r['agree'] else 'MISMATCH'}")
    return 0


def _cmd_verify(args) -> int:
    inst, report = _report(args)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print("\n".join(_fix_csv(inst, report)))
    else:
        counts = ",".join(str(r["brute"]) for r in report.rows)
        verdict = "PASS" if report.overall else "FAIL"
        print(f"{verdict} {inst.theorem} {inst.params} fixes=({counts})")
        if not report.overall:
            for r in report.rows:
                if not r["agree"]:
                    print(f"  e={r['e']} d={r['d']}: brute={r['brute']} "
                          f"closed={r['closed']} poly={r['poly_value']}")
    return 0 if report.overall else 1


def _cmd_orbit(args) -> int:
    if args.walk is not None:
        mp = maps.TreeRootedMap(args.walk)
        members = [mp]
        cur = maps.rotate_map(mp, 1)
        while cur != mp:
            members.append(cur)
            cur = maps.rotate_map(cur, 1)
    else:
        _require(args, "word")
        kinds = {"ordinary": rotations.ORDINARY, "leaf": rotations.LEAF,
                 "internal": rotations.INTERNAL}
        if args.kind == "degree":
            _require(args, "delta")
            kind = rotations.degree_kind(args.delta)
        else:
            kind = kinds.get(args.kind or "ordinary")
            if kind is None:
                raise UsageError(f"unknown rotation kind {args.kind!r}")
        members = rotations.orbit(trees.PlaneTree(args.word), kind)
    _emit(args, [_member_text(m) for m in members],
          [_member_text(m) for m in members])
    return 0


def _cmd_biject(args) -> int:
    target = args.to
    if target in ("ncm", "ncp", "dissection"):
        _require(args, "word")
        t = trees.PlaneTree(args.word)
        if target == "ncm":
            payload = bijections.tree_to_ncm(t).pairs()
        elif target == "ncp":
            payload = bijections.tree_to_ncp(t).blocks()
        else:
            payload = bijections.tree_to_dissection(t).descriptor()
    elif target == "cubic":
        _require(args, "walk")
        payload = maps.to_cubic(maps.TreeRootedMap(args.walk)).descriptor()
    elif target == "decompose":
        _require(args, "walk")
        bt, m = maps.decompose(maps.TreeRootedMap(args.walk))
        payload = {"btree": bt.word, "matching": m.pairs()}
    else:
        raise UsageError(f"unknown bijection target {args.to!r}")
    print(json.dumps(payload))
    return 0


def _cmd_sumcheck(args) -> int:
    _require(args, "identity", "n")
    which = {"refined_leaves": csp.REFINED_LEAVES,
             "chu_vandermonde_tm": csp.CHU_VANDERMONDE_TM}.get(args.identity)
    if which is None:
        raise UsageError(f"unknown identity {args.identity!r}")
    ok = csp.check_sum_identity(which, args.n)
    _emit(args, ["PASS" if ok else "FAIL"], {"identity": which, "n": args.n, "ok": ok})
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
    p.add_argument("--identity", choices=("refined_leaves", "chu_vandermonde_tm"))
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except csp.SizeGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
