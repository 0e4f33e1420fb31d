"""The ppt command line tool.

Subcommands compute polytope data for groups given as JSON spec files
and replay the bundled scenarios.  Mathematical outcomes (equivalent or
not, face or not) are report content; the exit status only says whether
the computation ran: 0 completed, 2 invalid input, 1 internal error or
scenario mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .characters import character_table, stably_equivalent_by_characters
from .groups import (CycleParseError, FiniteGroup, SizeCapError,
                     generator_correspondence)
from .polytopes import (build_polytope, lattice_structure, shape_descriptor,
                        subgroup_face_census)
from .report import canonical_json
from .reps import (MAX_VERTEX_ENTRIES, PermRep, compose_with_map,
                   effectively_equivalent, stably_equivalent_by_kernel)
from .scenarios import SCENARIOS, run_scenario

DEFAULT_CAP = 1000


class InputError(ValueError):
    """Bad spec file, unknown id, or an exceeded budget: exit status 2."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _resolve_cap(args) -> int:
    cap = args.cap
    if cap is None:
        env = os.environ.get("PPT_CAP")
        if env is None:
            cap = DEFAULT_CAP
        else:
            try:
                cap = int(env)
            except ValueError:
                raise InputError("PPT_CAP must be an integer, got %r" % env)
    if cap < 1:
        raise InputError("cap must be a positive integer")
    return cap


def _unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputError("duplicate key %r" % key)
        doc[key] = value
    return doc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror or exc))
    except InputError as exc:
        raise InputError("%s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable UTF-8, integers past Python's
        # digit limit and too deeply nested arrays
        raise InputError("%s is not valid JSON: %s" % (path, exc))


def _group_from_spec(doc, cap: int, where: str) -> FiniteGroup:
    if not isinstance(doc, dict):
        raise InputError("%s: group spec must be a JSON object" % where)
    unknown = sorted(set(doc) - {"label", "degree", "generators"})
    if unknown:
        raise InputError("%s: unknown spec fields: %s"
                         % (where, ", ".join(unknown)))
    degree = doc.get("degree")
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise InputError("%s: degree must be a positive integer" % where)
    if degree * degree > MAX_VERTEX_ENTRIES:
        raise SizeCapError("%s: degree %d needs %d entries per vertex, over "
                           "the cap of %d vertex entries"
                           % (where, degree, degree * degree,
                              MAX_VERTEX_ENTRIES))
    gens = doc.get("generators")
    if not isinstance(gens, list) or not all(isinstance(s, str) for s in gens):
        raise InputError("%s: generators must be a list of cycle strings"
                         % where)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError("%s: label must be a string" % where)
    try:
        return FiniteGroup.from_cycle_strings(gens, degree, cap=cap,
                                              label=label)
    except CycleParseError as exc:
        raise InputError("%s: bad generator: %s" % (where, exc))


def _load_group(path: str, cap: int) -> FiniteGroup:
    return _group_from_spec(_load_json(path), cap, path)


def _load_pair(path: str, cap: int):
    doc = _load_json(path)
    if (not isinstance(doc, dict) or set(doc) != {"first", "second"}):
        raise InputError(
            '%s: pair file must be {"first": spec, "second": spec}' % path)
    g1 = _group_from_spec(doc["first"], cap, path + ":first")
    g2 = _group_from_spec(doc["second"], cap, path + ":second")
    return g1, g2


def _print_group_header(group: FiniteGroup):
    if group.label:
        print("label: %s" % group.label)
    print("order: %d" % group.order)
    print("degree: %d" % group.degree)


def cmd_dim(args) -> int:
    cap = _resolve_cap(args)
    group = _load_group(args.spec, cap)
    poly = build_polytope(PermRep.natural(group))
    _print_group_header(group)
    print("vertices: %d" % poly.vertex_count)
    print("dim: %d" % poly.dim)
    print("shape: %s" % shape_descriptor(poly))
    return 0


def cmd_stable(args) -> int:
    cap = _resolve_cap(args)
    g1, g2 = _load_pair(args.pair, cap)
    phi = generator_correspondence(g1, g2)
    if phi is None:
        raise InputError(
            "the generator lists do not define an isomorphism between the "
            "two groups; stable equivalence needs an identification")
    nat1 = PermRep.natural(g1)
    pulled = compose_with_map(PermRep.natural(g2), phi)
    for a, b in zip(g1.gens, g2.gens):
        print("identify: %s -> %s" % (g1.elements[a].cycle_string(),
                                      g2.elements[b].cycle_string()))
    by_kernel = stably_equivalent_by_kernel(nat1, pulled)
    by_chars = stably_equivalent_by_characters(nat1, pulled,
                                               character_table(g1))
    print("stable_by_kernel: %s" % _fmt(by_kernel))
    print("stable_by_characters: %s" % _fmt(by_chars))
    print("routes_agree: %s" % _fmt(by_kernel == by_chars))
    return 0


def cmd_effective(args) -> int:
    cap = _resolve_cap(args)
    g1, g2 = _load_pair(args.pair, cap)
    phi = effectively_equivalent(PermRep.natural(g1), PermRep.natural(g2),
                                 node_cap=10_000 * cap)
    print("effectively_equivalent: %s" % _fmt(phi is not None))
    if phi is not None:
        for a in g1.gens:
            print("witness: %s -> %s"
                  % (g1.elements[a].cycle_string(),
                     g2.elements[phi.images[a]].cycle_string()))
    return 0


def cmd_chartable(args) -> int:
    cap = _resolve_cap(args)
    group = _load_group(args.spec, cap)
    table = character_table(group)
    _print_group_header(group)
    print("classes: %d" % table.count)
    print("conductor: %d" % table.conductor)
    print("route: %s" % table.route)
    print("class sizes: %s" % " ".join(str(s) for s in table.sizes))
    print("class reps: %s" % " ".join(
        group.elements[r].cycle_string() for r in table.reps))
    for i, row in enumerate(table.values):
        print("chi_%d (degree %d): %s"
              % (i, table.degrees[i], " | ".join(str(v) for v in row)))
    return 0


def cmd_faces(args) -> int:
    cap = _resolve_cap(args)
    group = _load_group(args.spec, cap)
    rep = PermRep.natural(group)
    try:
        census = subgroup_face_census(rep, args.order, node_cap=10_000 * cap)
    except ValueError as exc:
        raise InputError(str(exc))
    _print_group_header(group)
    print("subgroup order: %d" % args.order)
    print("subgroups: %d" % len(census))
    print("faces: %d" % sum(1 for e in census if e.is_face))
    for i, entry in enumerate(census):
        gens = ", ".join(group.elements[g].cycle_string()
                         for g in group.subgroup_from_elements(entry.elements).gens)
        if entry.is_face:
            print("subgroup %d <%s>: face of dim %d" % (i + 1, gens,
                                                        entry.face_dim))
        else:
            print("subgroup %d <%s>: not a face" % (i + 1, gens))
    return 0


def cmd_lattice(args) -> int:
    cap = _resolve_cap(args)
    group = _load_group(args.spec, cap)
    poly = build_polytope(PermRep.natural(group))
    data = lattice_structure(poly)
    _print_group_header(group)
    print("vertices: %d" % poly.vertex_count)
    print("dim: %d" % poly.dim)
    print("lattice index: %d" % data.index)
    if data.normalized_volume is None:
        print("normalized volume: not a simplex")
    else:
        print("normalized volume: %d" % data.normalized_volume)
        print("euclidean volume: %s" % data.euclidean_volume)
    return 0


def cmd_reproduce(args) -> int:
    cap = _resolve_cap(args)
    if args.id not in SCENARIOS:
        raise InputError("unknown scenario %r; known: %s"
                         % (args.id, ", ".join(sorted(SCENARIOS))))
    # open the JSON file first, so that an unwritable path fails fast
    try:
        fh = open(args.json, "w", encoding="utf-8") if args.json else None
    except OSError as exc:
        raise InputError("cannot write %s: %s"
                         % (args.json, exc.strerror or exc))
    with fh or contextlib.nullcontext():
        report = run_scenario(args.id, cap=cap, node_cap=10_000 * cap)
        print(report.text())
        if fh is not None:
            fh.write(canonical_json(report.payload()))
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=None,
                        help="group order cap (default 1000 or $PPT_CAP); "
                             "search budgets scale with it")
    parser = argparse.ArgumentParser(
        prog="ppt",
        description="permutation polytopes: dimensions, equivalences, "
                    "faces, lattices, bundled scenario reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", parents=[common],
                       help="dimension and shape of a group's polytope")
    p.add_argument("spec", help="JSON group spec file")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("stable", parents=[common],
                       help="stable equivalence of two natural "
                            "representations, generators identified in order")
    p.add_argument("pair", help='JSON file {"first": spec, "second": spec}')
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("effective", parents=[common],
                       help="search all isomorphisms for a stable equivalence")
    p.add_argument("pair", help='JSON file {"first": spec, "second": spec}')
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("chartable", parents=[common],
                       help="exact character table")
    p.add_argument("spec", help="JSON group spec file")
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("faces", parents=[common],
                       help="which subgroups of a given order are face "
                            "vertex sets")
    p.add_argument("--order", type=int, required=True,
                   help="subgroup order to test")
    p.add_argument("spec", help="JSON group spec file")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("lattice", parents=[common],
                       help="vertex lattice index and volume data")
    p.add_argument("spec", help="JSON group spec file")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("reproduce", parents=[common],
                       help="run a bundled scenario and check every value")
    p.add_argument("id", help="one of: %s" % ", ".join(sorted(SCENARIOS)))
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as canonical JSON")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
