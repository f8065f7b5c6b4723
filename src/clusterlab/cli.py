"""Command-line front end and flat-file formats.

Files are restricted structured text (JSON: objects, arrays, strings,
integers, booleans; angles and arc endpoints are reduced fractions of a
turn written as strings like "3/4"). One loader validates each format and
every datum before use. Reports are deterministic: identical inputs and
flags produce byte-identical output.

Exit codes: 0 success / check passed; 1 definitive verification failure
(replayable witness printed); 2 inconclusive or resource-limited; 3 input
errors. Unknown flags are rejected with exit 3. An error's exit code is its
kind, declared in errors.py; `main` reads it and names no other class.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Any

from .disc import (
    FAMILY_KINDS,
    Arc,
    ArcFamily,
    FiniteTriangulation,
    InfiniteTriangulation,
    flip_arc,
    frac_str,
    limit_arcs,
    parse_arc_label,
    parse_frac,
    seed_from_triangulation,
    validate_triangulation,
)
from .colimits import (
    ORACLES,
    FiniteSeedOracle,
    build_filtration,
    stable_mutation,
    triangulation_filtration,
)
from .errors import (
    ClusterLabError,
    CrossingPair,
    Inconclusive,
    InputError,
    InvalidSeed,
    LaurentParseError,
    NotMaximal,
    ParseError,
)
from .laurent import LaurentPoly, format_poly, parse_poly
from .morphisms import (
    DEFAULT_CM3_DEPTH,
    ClusterMap,
    check_cm3,
    check_ideal_witness,
    image_seed,
)
from .seeds import (
    DEFAULT_NODE_BUDGET,
    Seed,
    check_similar,
    connected_components,
    coproduct,
    enumerate_cluster_variables,
    mutate_sequence,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

# the fraction fields of a family record
_FAMILY_FRACTIONS = ("limit", "scale", "base", "limit2", "scale2")


# -- file formats -------------------------------------------------------------


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except OSError as exc:
        raise _file_error("read", path, exc) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer past int's limit on the length of integer text
        raise ParseError(f"integer too long to read: {path}") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON nested too deeply: {path}") from exc


def _file_error(action: str, path: str, exc: OSError) -> ParseError:
    """A path that cannot be read, written or created is an input error."""
    return ParseError(f"cannot {action} {path}: {exc.strerror or exc}")


def _expect(cond: bool, message: str, expected: str | None = None):
    if not cond:
        raise ParseError(message, expected=expected)


def _known_keys(record: dict, keys: tuple[str, ...], what: str) -> None:
    """A key no loader reads is an input error, not a silent default."""
    for key in record:
        _expect(key in keys, f"unknown key {key!r} in {what}", expected=" | ".join(keys))


def _list_field(data: dict, key: str) -> list:
    value = data.get(key, [])
    _expect(isinstance(value, list), f"'{key}' must be a list")
    return value


def _fraction(value: Any, what: str, angle: bool = True) -> Fraction:
    """The one coercion of a fraction field: a string "p/q", reduced to
    [0, 1) when it is an angle."""
    _expect(isinstance(value, str), f"{what} must be a fraction string", expected="p/q")
    if angle:
        return parse_frac(value)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {value!r}", expected="p/q") from exc


def load_seed_file(path: str) -> Seed:
    """Parse and validate a seed file; the Seed constructor checks that its
    matrix is skew-symmetrizable."""
    data = _load_json(path)
    _expect(isinstance(data, dict), "seed file must be an object")
    _known_keys(data, ("variables", "matrix", "values"), "the seed file")
    _expect("variables" in data, "seed file needs a 'variables' key")
    labels: list[str] = []
    exchangeable: set[str] = set()
    for entry in _list_field(data, "variables"):
        _expect(
            isinstance(entry, dict) and "id" in entry,
            "each variable needs an 'id'",
            expected='{"id": ..., "exchangeable": ...}',
        )
        _known_keys(entry, ("id", "exchangeable"), "a variable")
        _expect(isinstance(entry["id"], str), "variable ids must be strings")
        labels.append(entry["id"])
        flag = entry.get("exchangeable", False)
        _expect(isinstance(flag, bool), "'exchangeable' must be true or false")
        if flag:
            exchangeable.add(entry["id"])
    label_set = set(labels)
    matrix: dict[str, dict[str, int]] = {}
    given: set[tuple[str, str]] = set()
    for triple in _list_field(data, "matrix"):
        _expect(
            isinstance(triple, list)
            and len(triple) == 3
            and all(isinstance(x, str) for x in triple[:2]),
            "matrix entries are [row, col, value] triples",
        )
        row, col, value = triple
        _expect(
            isinstance(value, int) and not isinstance(value, bool),
            "matrix values must be integers",
        )
        if row not in label_set or col not in label_set:
            raise ParseError(
                f"matrix entry references undeclared variable {row!r} or {col!r}"
            )
        _expect((row, col) not in given, f"matrix entry ({row!r}, {col!r}) is given twice")
        given.add((row, col))
        if value:
            matrix.setdefault(row, {})[col] = value
    try:
        if "values" not in data:
            return Seed.initial(labels, exchangeable, matrix)
        # the constructor's first check, made before the values are read
        if len(label_set) != len(labels):
            raise InvalidSeed("duplicate labels in cluster")
        values = {}
        for pair in _list_field(data, "values"):
            _expect(
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(x, str) for x in pair),
                "'values' entries are [id, laurent-text] pairs",
            )
            vid, text = pair
            if vid not in label_set:
                raise ParseError(
                    f"values entry references undeclared variable {vid!r}"
                )
            _expect(vid not in values, f"values entry for {vid!r} is given twice")
            values[vid] = parse_poly(text)
        _expect(set(values) == label_set, "'values' must cover every variable")
        return Seed(tuple(labels), frozenset(exchangeable), matrix, values)
    except LaurentParseError as exc:
        raise ParseError(f"bad laurent text: {exc}") from exc
    except ClusterLabError as exc:
        raise InvalidSeed(str(exc)) from exc


def seed_to_data(seed: Seed) -> dict:
    return {
        "variables": [
            {"id": l, "exchangeable": l in seed.exchangeable}
            for l in sorted(seed.labels)
        ],
        "matrix": sorted(
            [v, w, b] for v, row in seed.matrix.items() for w, b in row.items()
        ),
        "values": [[l, format_poly(seed.values[l])] for l in sorted(seed.labels)],
    }


def _write_json(data: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise _file_error("write", path, exc) from exc


def save_seed_file(seed: Seed, path: str) -> None:
    _write_json(seed_to_data(seed), path)


def _reported(data: dict, out: str | None) -> dict:
    """The data of a report, also written to --out when it names a file."""
    if out:
        _write_json(data, out)
    return data


def load_triangulation_file(path: str) -> FiniteTriangulation | InfiniteTriangulation:
    data = _load_json(path)
    _expect(isinstance(data, dict), "triangulation file must be an object")
    _known_keys(data, ("points", "arcs", "families"), "the triangulation file")
    points = [_fraction(p, "a point") for p in _list_field(data, "points")]
    arcs = set()
    for pair in _list_field(data, "arcs"):
        _expect(
            isinstance(pair, list) and len(pair) == 2,
            "arcs are [point, point] pairs",
        )
        p, q = (_fraction(x, "an arc endpoint") for x in pair)
        _expect(p != q, f"arc {pair} joins a point to itself")
        arcs.add(Arc.of(p, q))
    specs = []
    for fam in _list_field(data, "families"):
        _expect(isinstance(fam, dict) and "kind" in fam, "families need a 'kind'")
        _known_keys(fam, ("kind", *_FAMILY_FRACTIONS, "start"), "a family")
        _expect(
            isinstance(fam["kind"], str) and fam["kind"] in FAMILY_KINDS,
            f"unknown family kind {fam['kind']!r}",
            expected=" | ".join(FAMILY_KINDS),
        )
        for key in ("limit", "scale"):
            _expect(key in fam, f"families need a '{key}'")
        kwargs: dict[str, Any] = {"kind": fam["kind"]}
        for key in _FAMILY_FRACTIONS:
            if key in fam:
                kwargs[key] = _fraction(fam[key], f"'{key}'", angle=not key.startswith("scale"))
        if "start" in fam:
            start = fam["start"]
            _expect(
                isinstance(start, int) and not isinstance(start, bool),
                "'start' must be an integer",
            )
            kwargs["start"] = start
        specs.append(kwargs)
    if specs:
        return InfiniteTriangulation(
            families=tuple(ArcFamily(**kwargs) for kwargs in specs),
            extra_arcs=frozenset(arcs),
            finite_points=tuple(points),
        )
    return validate_triangulation(points, arcs)


def triangulation_to_data(t: FiniteTriangulation) -> dict:
    return {
        "points": [frac_str(p) for p in t.points],
        "arcs": sorted([frac_str(a.p), frac_str(a.q)] for a in t.arcs),
    }


def load_map_file(path: str, source: Seed, target: Seed) -> ClusterMap:
    data = _load_json(path)
    _expect(isinstance(data, dict), "map file must be an object")
    _known_keys(data, ("assignment", "extra"), "the map file")
    _expect("assignment" in data, "map file needs an 'assignment' key")
    assignment: dict[str, str | int] = {}
    for pair in _list_field(data, "assignment"):
        _expect(
            isinstance(pair, list) and len(pair) == 2,
            "assignment entries are [source-id, target-id-or-integer] pairs",
        )
        src, img = pair
        _expect(isinstance(src, str), "assignment sources are ids")
        ok_img = isinstance(img, str) or (
            isinstance(img, int) and not isinstance(img, bool)
        )
        _expect(ok_img, "assignment images are ids or integers")
        _expect(src not in assignment, f"assignment source {src!r} is given twice")
        assignment[src] = img
    extra: dict[LaurentPoly, str | int] = {}
    for pair in _list_field(data, "extra"):
        _expect(
            isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str),
            "'extra' entries are [laurent-text, target-id-or-integer] pairs",
        )
        text, img = pair
        try:
            gen = parse_poly(text)
        except LaurentParseError as exc:
            raise ParseError(f"bad laurent text in 'extra': {exc}") from exc
        if gen in extra:
            raise ParseError(f"extra generator {format_poly(gen)} is given twice")
        extra[gen] = img
    return ClusterMap(source, target, assignment, extra)


# -- reporting ------------------------------------------------------------------


def _render_plain(report: dict, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_plain(value, indent + 1))
        elif isinstance(value, list):
            if all(not isinstance(x, (dict, list)) for x in value):
                lines.append(f"{pad}{key}: " + ", ".join(str(x) for x in value))
            else:
                lines.append(f"{pad}{key}:")
                for x in value:
                    if isinstance(x, dict):
                        lines.append(f"{pad}  -")
                        lines.extend(_render_plain(x, indent + 2))
                    elif isinstance(x, list):
                        lines.append(f"{pad}  - " + ", ".join(str(y) for y in x))
                    else:
                        lines.append(f"{pad}  - {x}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def emit(report: dict, fmt: str) -> None:
    if fmt == "structured":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_render_plain(report)) + "\n")


# -- commands ---------------------------------------------------------------------


def _cmd_mutate(args) -> tuple[int, dict]:
    seed = load_seed_file(args.seed)
    steps = args.sequence.split(",") if args.sequence else [args.at]
    result = mutate_sequence(seed, steps)
    return EXIT_OK, {
        "command": "mutate",
        "sequence": steps,
        "seed": _reported(seed_to_data(result), args.out),
    }


def _cmd_enumerate(args) -> tuple[int, dict]:
    seed = load_seed_file(args.seed)
    values = enumerate_cluster_variables(seed, args.depth, args.nodes)
    return EXIT_OK, {
        "command": "enumerate",
        "depth": args.depth,
        "count": len(values),
        "values": [format_poly(v) for v in values],
    }


def _cmd_components(args) -> tuple[int, dict]:
    seed = load_seed_file(args.seed)
    parts = connected_components(seed)
    return EXIT_OK, {
        "command": "components",
        "count": len(parts),
        "parts": [sorted(p.labels) for p in parts],
    }


def _cmd_coproduct(args) -> tuple[int, dict]:
    seeds = [load_seed_file(p) for p in args.seeds]
    result = coproduct(seeds)
    return EXIT_OK, {"command": "coproduct", "seed": _reported(seed_to_data(result), args.out)}


def _cmd_similar(args) -> tuple[int, dict]:
    s = load_seed_file(args.src)
    t = load_seed_file(args.dst)
    bijection = check_similar(s, t)
    if bijection is None:
        return EXIT_FAIL, {"command": "similar", "similar": False}
    return EXIT_OK, {
        "command": "similar",
        "similar": True,
        "bijection": [[v, bijection[v]] for v in sorted(bijection)],
    }


def _report_cm(report) -> dict:
    out = {
        "cm1": report.cm1,
        "cm2": report.cm2,
        "cm2_witnesses": list(report.cm2_witnesses),
    }
    if report.counterexample is None:
        out["cm3"] = f"verified-to-depth {report.cm3_verified_to}"
    else:
        ce = report.counterexample
        out["cm3"] = "counterexample"
        out["counterexample"] = {
            "sequence": list(ce.sequence),
            "variable": ce.variable,
            "lhs": format_poly(ce.lhs),
            "rhs": format_poly(ce.rhs),
        }
    out["nodes"] = report.nodes
    return out


def _load_map(args) -> ClusterMap:
    """The map of --map between the seeds of --src and --dst, read in that order."""
    src = load_seed_file(args.src)
    return load_map_file(args.map, src, load_seed_file(args.dst))


def _cmd_check_morphism(args) -> tuple[int, dict]:
    report = check_cm3(_load_map(args), args.depth, args.nodes)
    code = EXIT_OK if report.passed else EXIT_FAIL
    return code, {"command": "check-morphism", **_report_cm(report)}


def _cmd_image_seed(args) -> tuple[int, dict]:
    img = image_seed(_load_map(args))
    return EXIT_OK, {"command": "image-seed", "seed": _reported(seed_to_data(img), args.out)}


def _cmd_check_ideal(args) -> tuple[int, dict]:
    m = _load_map(args)
    morphism_report = check_cm3(m, args.depth, args.nodes)
    if not morphism_report.passed:
        return EXIT_FAIL, {
            "command": "check-ideal",
            "error": "the map is not a verified rooted cluster morphism",
            **_report_cm(morphism_report),
        }
    ideal = check_ideal_witness(m, args.depth, args.nodes)
    if ideal.is_witness:
        return EXIT_FAIL, {
            "command": "check-ideal",
            "status": "witness",
            "witness": format_poly(ideal.witness),
            "depth": ideal.depth,
        }
    return EXIT_OK, {
        "command": "check-ideal",
        "status": "ideal-to-depth",
        "depth": ideal.depth,
    }


def _cmd_validate_tri(args) -> tuple[int, dict]:
    tri = load_triangulation_file(args.tri)
    kind = "finite" if isinstance(tri, FiniteTriangulation) else "infinite"
    out = {"command": "validate-tri", "valid": True, "kind": kind}
    if kind == "finite":
        out["points"] = len(tri.points)
        out["arcs"] = len(tri.arcs)
    return EXIT_OK, out


def _load_finite_tri(args) -> FiniteTriangulation:
    tri = load_triangulation_file(args.tri)
    if not isinstance(tri, FiniteTriangulation):
        raise ParseError(f"{args.verb} applies to finite triangulations")
    return tri


def _cmd_flip(args) -> tuple[int, dict]:
    tri = _load_finite_tri(args)
    arc = parse_arc_label(args.arc)
    result = flip_arc(tri, arc)
    new_arc = next(iter(result.arcs - tri.arcs))
    return EXIT_OK, {
        "command": "flip",
        "removed": arc.label,
        "added": new_arc.label,
        "triangulation": _reported(triangulation_to_data(result), args.out),
    }


def _cmd_tri_seed(args) -> tuple[int, dict]:
    seed = seed_from_triangulation(_load_finite_tri(args))
    return EXIT_OK, {"command": "tri-seed", "seed": _reported(seed_to_data(seed), args.out)}


def _cmd_limit_arcs(args) -> tuple[int, dict]:
    tri = load_triangulation_file(args.tri)
    if isinstance(tri, FiniteTriangulation):
        found: list[str] = []
    else:
        found = sorted(a.label for a in limit_arcs(tri))
    return EXIT_OK, {"command": "limit-arcs", "limit_arcs": found}


def _oracle_from_args(args):
    name = args.oracle
    if name.startswith("wrap:"):
        return FiniteSeedOracle(load_seed_file(name[len("wrap:") :]))
    if name not in ORACLES:
        raise ParseError(
            f"unknown oracle {name!r}",
            expected=" | ".join([*ORACLES, "wrap:SEEDFILE"]),
        )
    return ORACLES[name]()


def _cmd_filtration(args) -> tuple[int, dict]:
    if args.tri:
        tri = load_triangulation_file(args.tri)
        fil = triangulation_filtration(tri, args.steps)
    else:
        fil = build_filtration(_oracle_from_args(args), args.steps)
    if args.out_dir:
        import os

        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise _file_error("create", args.out_dir, exc) from exc
        for i, stage in enumerate(fil.stages):
            save_seed_file(stage, os.path.join(args.out_dir, f"stage{i}.seed"))
    return EXIT_OK, {
        "command": "filtration",
        "provenance": fil.provenance,
        "stages": [
            {"index": i, "size": len(s.labels), "exchangeable": len(s.exchangeable)}
            for i, s in enumerate(fil.stages)
        ],
    }


def _stable_report(args) -> tuple[LaurentPoly, dict]:
    """The stable mutation value of --target along --sequence in --oracle,
    and the report prefix the oracle verbs share."""
    seq = args.sequence.split(",") if args.sequence else []
    value, stage = stable_mutation(_oracle_from_args(args), seq, args.target)
    return value, {
        "command": args.verb,
        "sequence": seq,
        "target": args.target,
        "value": format_poly(value),
        "stage": stage,
    }


def _cmd_stable_mutate(args) -> tuple[int, dict]:
    return EXIT_OK, _stable_report(args)[1]


def _cmd_positivity(args) -> tuple[int, dict]:
    value, report = _stable_report(args)
    positive = report["positive"] = value.has_nonnegative_coefficients()
    if positive:
        return EXIT_OK, report
    report["negative_terms"] = sorted(
        format_poly(LaurentPoly({m: c})) for m, c in value.terms.items() if c < 0
    )
    return EXIT_FAIL, report


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clusterlab",
        description="Exact computations in rooted cluster algebras.",
    )
    parser.add_argument(
        "--format",
        choices=("plain", "structured"),
        default="plain",
        help="report format (structured = JSON with the same content)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, depth=DEFAULT_CM3_DEPTH):
        p.add_argument("--depth", type=int, default=depth)
        p.add_argument("--nodes", type=int, default=DEFAULT_NODE_BUDGET)

    p = sub.add_parser("mutate", help="mutate a seed at a variable or along a sequence")
    p.add_argument("--seed", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--at")
    source.add_argument("--sequence")
    p.add_argument("--out")

    p = sub.add_parser("enumerate", help="depth-bounded cluster variable census")
    p.add_argument("--seed", required=True)
    common(p, depth=6)

    p = sub.add_parser("components", help="connected components of a seed")
    p.add_argument("--seed", required=True)

    p = sub.add_parser("coproduct", help="disjoint union of seeds")
    p.add_argument("--seeds", nargs="+", required=True)
    p.add_argument("--out")

    p = sub.add_parser("similar", help="similarity of two seeds")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)

    for verb, text in (
        ("check-morphism", "CM1/CM2/CM3 verification"),
        ("image-seed", "image seed of a candidate morphism"),
        ("check-ideal", "search for a non-ideal witness"),
    ):
        p = sub.add_parser(verb, help=text)
        for flag in ("--src", "--dst", "--map"):
            p.add_argument(flag, required=True)
        if verb == "image-seed":
            p.add_argument("--out")
        else:
            common(p)

    p = sub.add_parser("validate-tri", help="validate a triangulation file")
    p.add_argument("--tri", required=True)

    p = sub.add_parser("flip", help="diagonal flip of an exchangeable arc")
    p.add_argument("--tri", required=True)
    p.add_argument("--arc", required=True, help="arc label like 0/1~1/2")
    p.add_argument("--out")

    p = sub.add_parser("tri-seed", help="seed of a finite triangulation")
    p.add_argument("--tri", required=True)
    p.add_argument("--out")

    p = sub.add_parser("limit-arcs", help="limit arcs of an infinite triangulation")
    p.add_argument("--tri", required=True)

    p = sub.add_parser("filtration", help="finite full-subseed filtration")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--oracle", default="path-quiver")
    source.add_argument("--tri", help="build from a triangulation file instead")
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--out-dir")

    for verb, text in (
        ("stable-mutate", "mutation in an infinite seed"),
        ("positivity", "positivity of a stable mutation value"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--oracle", required=True)
        p.add_argument("--sequence", default="")
        p.add_argument("--target", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for flag in ("depth", "nodes", "steps"):
        if getattr(args, flag, 0) < 0:
            parser.error(f"--{flag} must not be negative")
    if args.verb == "mutate" and not (args.at or args.sequence):
        parser.error("mutate needs --at or --sequence")
    try:
        # the handler is looked up at each call, so a rebinding applies
        code, report = globals()["_cmd_" + args.verb.replace("-", "_")](args)
    except (CrossingPair, NotMaximal) as exc:
        emit({"error": str(exc), "valid": False}, args.format)
        return EXIT_FAIL
    except Inconclusive as exc:
        emit({"inconclusive": str(exc)}, args.format)
        return EXIT_INCONCLUSIVE
    except ClusterLabError as exc:
        emit({"error": str(exc)}, args.format)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_FAIL
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
