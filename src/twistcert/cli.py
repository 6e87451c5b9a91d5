"""Command-line front end for the certificate pipeline.

Five subcommands cover the library surface: ``verify`` builds and checks
the certificate for the twist powers 1..K (exact identities and amalgam
memberships for each power, and a double-coset separation for each
pair; a PASS does not prove infinite generation, see the README's
Claims table), ``eval`` evaluates a Laurent expression, ``rho`` prints the representation matrix of a lift, ``tree``
answers distance/stabilizer/translation queries, and ``normal-form``
decomposes a matrix into alternating amalgam letters.

Exit codes are a stable contract: 0 on success (and a true verdict), 1
when verification fails, 2 on usage or parse errors and when standard
output closes early.  Work is bounded by documented limits: --genus at
most MAX_GENUS, --kmax at most MAX_KMAX, tree ball --ball-radius at most
MAX_BALL_RADIUS, and the expression limits of the laurent parser.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from .amalgam import (
    amalgam_normal_form,
    build_certificate,
    pairing_table_recheck,
)
from .homology import MAX_GENUS, EpsilonTable, LiftClass, canonical_lift
from .laurent import (
    LaurentRing,
    ParseError,
    _MAX_DIGITS,
    parse_poly,
    single_variable_ring,
    surface_ring,
)
from .rep import Matrix2, h_form, rho
from .tree import (
    TreeVertex,
    act,
    ball_dot,
    canonical_vertex,
    distance,
    parse_vertex,
    series_ring,
    translation_length,
)


# verify --kmax K writes K(K-1)/2 pairwise records: about 100 MB of JSON
# at the limit
MAX_KMAX = 1000
# tree ball --ball-radius R explores about 2^R vertices: about 15,000
# DOT lines at the limit
MAX_BALL_RADIUS = 10


class UsageError(Exception):
    """A configuration problem; the process exits with code 2."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # main prints one line, not a usage block
        raise UsageError(message)


def _int(text: str) -> int:
    """An integer option: int() also reads digits of other scripts and
    underscores between digits, which are refused here."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"  # argparse's error names the type: invalid int value


def _check_genus(genus: int):
    if not 2 <= genus <= MAX_GENUS:
        raise UsageError(
            f"genus must be between 2 and {MAX_GENUS}, got {genus}")


# -- input plumbing --------------------------------------------------------


def _read_source(source: str) -> str:
    """Resolve an argument that may be '-', a file path, or a literal."""
    if source == "-":
        return sys.stdin.read()
    if os.path.isfile(source):  # false for a literal too long for a name
        with open(source) as file:
            return file.read()
    return source


def _decode_json(text: str, what: str):
    """json.loads for every JSON input: text nested too deep for the
    decoder, or an integer too long to convert, is a ValueError."""
    def parse_int(literal: str) -> int:
        if len(literal.lstrip("-")) > _MAX_DIGITS:
            raise ValueError(f"{what} JSON has an integer of more than "
                             f"{_MAX_DIGITS} digits")
        return int(literal)
    try:
        return json.loads(text, parse_int=parse_int)
    except RecursionError:
        raise ValueError(f"{what} JSON nests too deeply") from None


def _read_json(source: str, what: str):
    """Read JSON given as '-', a file path, or inline text."""
    text = _read_source(source)
    try:
        return _decode_json(text, what)
    except json.JSONDecodeError as exc:
        if text is source:  # not stdin, not a file, not inline JSON
            raise UsageError(f"cannot read {source}") from None
        raise UsageError(f"bad {what} JSON: {exc}") from None


def parse_matrix(text: str) -> Matrix2:
    """Parse ``[[a, b], [c, d]]`` with entries in Q[t, t^-1], or a
    matrix record ``{"a": ..., "d": ...}``."""
    ring = series_ring()
    body = text.strip()
    if body.startswith("{"):
        try:
            return Matrix2.from_json(ring, _decode_json(body, "matrix"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad matrix JSON: {exc.msg}", exc.pos) from None
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ParseError("matrix literals look like [[a, b], [c, d]]", 0)
    rows = re.split(r"\]\s*,\s*\[", body[2:-2])
    cells = [cell for row in rows for cell in row.split(",")]
    if len(rows) != 2 or len(cells) != 4:
        raise ParseError("matrix literals need two rows of two entries", 0)
    return Matrix2.from_rows(ring, [cells[:2], cells[2:]])


def _vertex_from_spec(source: str) -> TreeVertex:
    """Read a vertex: 'base', '(a; r)' text, or a lattice basis matrix."""
    text = _read_source(source).strip()
    if text.startswith("[[") or text.startswith("{"):
        return canonical_vertex(*parse_matrix(text).entries())
    return parse_vertex(text)


def _lift_from_spec(source: str, genus: int) -> LiftClass:
    if source == "canonical-C":
        return canonical_lift(genus)
    return LiftClass.from_json(_read_json(source, "lift"))


def _ring_for_expression(expr: str, genus: int, domain: str) -> LaurentRing:
    """Pick the ring from the variable tokens that appear in expr."""
    names = set(re.findall(r"\b[st]\d+\b", expr, re.ASCII))
    if not names:
        return single_variable_ring("t", domain)
    ring = surface_ring(genus, domain)
    unknown = sorted(names - set(ring.names))
    indices = {str(g) for g in range(2, MAX_GENUS + 1)}
    for name in unknown:
        if name[1:] not in indices:  # no genus has it: --genus cannot help
            raise UsageError(
                f"variable {name} is in no surface ring: the variables are "
                f"s2..sg and t2..tg, g at most {MAX_GENUS}, with no leading "
                "zeros")
    if unknown:
        raise UsageError(
            f"variable {unknown[0]} is outside the genus-{genus} "
            "ring; raise --genus")
    return ring


# -- subcommands ------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    _check_genus(args.genus)
    if not 2 <= args.kmax <= MAX_KMAX:
        raise UsageError(
            f"kmax must be between 2 and {MAX_KMAX}, got {args.kmax}")
    eps = EpsilonTable(args.genus)
    if args.eps_table is not None:
        eps = EpsilonTable.from_entries(
            args.genus, _read_json(args.eps_table, "pairing table"))
    lift = canonical_lift(args.genus)
    if args.lift is not None:
        lift = _lift_from_spec(args.lift, args.genus)
    cert = build_certificate(args.kmax, args.genus, eps=eps, base_lift=lift)
    # serialise only when the JSON bytes are printed or written
    text = None
    if args.format == "json" or args.output is not None:
        text = cert.json_text()

    recheck_note = None
    if args.seed is not None and not pairing_table_recheck(
            lift, eps, EpsilonTable.seeded(args.genus, args.seed)):
        recheck_note = (f"certificate depends on the pairing table "
                        f"(seed {args.seed})")

    if args.output is not None:
        try:
            with open(args.output, "w") as out:
                out.write(text + "\n")
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise UsageError(f"cannot write {args.output}: {reason}") from None
    if args.format == "json":
        print(text)
    else:
        for line in cert.summary_lines():
            print(line)
        if args.seed is not None:
            print("pairing-table recheck: "
                  + ("failed" if recheck_note else "ok"))
    bad = cert.first_failure()
    if bad is not None:
        print("failing record: " + json.dumps(bad, sort_keys=True))
    if recheck_note is not None:
        print("failing check: " + recheck_note)
    return 0 if bad is None and recheck_note is None else 1


def cmd_eval(args: argparse.Namespace) -> int:
    _check_genus(args.genus)
    expr = _read_source(args.expression) if args.expression == "-" \
        else args.expression
    ring = _ring_for_expression(expr, args.genus, args.domain)
    print(parse_poly(expr, ring))
    return 0


def cmd_rho(args: argparse.Namespace) -> int:
    genus = 2 if args.genus is None else args.genus
    _check_genus(genus)
    lift = _lift_from_spec(args.lift, genus)
    if args.genus is not None and lift.genus != genus:
        raise UsageError(f"lift has genus {lift.genus}, expected {genus}")
    mat = rho(lift)
    form = h_form(mat)
    flags = [poly.is_balanced() for poly in form]
    if args.format == "json":
        print(json.dumps({
            "matrix": mat.to_json(),
            "h_form": dict(zip(("p1", "q1", "q2", "p2"), map(str, form))),
            "balanced": flags,
        }, indent=2, sort_keys=True))
        return 0
    print(mat)
    if all(flags):
        print("balanced: yes x4")
    else:
        named = zip(("a - 1", "b", "c", "1 - d"), flags)
        print("balanced: " + ", ".join(
            f"{name} {'yes' if ok else 'no'}" for name, ok in named))
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    if args.query == "distance":
        print(distance(_vertex_from_spec(args.left),
                       _vertex_from_spec(args.right)))
        return 0
    if args.query == "fixes":
        mat = parse_matrix(_read_source(args.matrix))
        vertex = _vertex_from_spec(args.vertex)
        moved = act(mat, vertex)
        if moved == vertex:
            print(f"fixes {vertex}: yes")
        else:
            print(f"fixes {vertex}: no, moves it to {moved} "
                  f"at distance {distance(vertex, moved)}")
        return 0
    if args.query == "translation":
        mat = parse_matrix(_read_source(args.matrix))
        print(f"translation length: {translation_length(mat)} (exact)")
        print("note: read from the trace, max(0, -2 v(tr g))")
        return 0
    if args.ball_radius > MAX_BALL_RADIUS:
        raise UsageError(f"ball radius must be at most {MAX_BALL_RADIUS}, "
                         f"got {args.ball_radius}")
    print(ball_dot(center=_vertex_from_spec(args.center),
                   radius=args.ball_radius))
    return 0


def cmd_normal_form(args: argparse.Namespace) -> int:
    mat = parse_matrix(_read_source(args.matrix))
    letters = amalgam_normal_form(mat)
    if args.format == "json":
        print(json.dumps(
            [{"side": l.side, "matrix": l.matrix.to_json()} for l in letters],
            indent=2, sort_keys=True))
        return 0
    # every line is formatted before any is written: a letter that cannot
    # be printed leaves standard output empty
    print("\n".join([*map(str, letters), f"letters: {len(letters)}"]))
    return 0


# -- parser ------------------------------------------------------------------


def _add_verify(sub):
    verify = sub.add_parser(
        "verify", help="build and check the full certificate")
    verify.add_argument("--genus", type=_int, default=2)
    verify.add_argument("--kmax", type=_int, default=10,
                        help="largest twist power to certify (default 10)")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--eps-table", metavar="JSON",
                        help="list of intersection-pairing entries "
                             "(path, inline, or -)")
    verify.add_argument("--lift", metavar="LIFT",
                        help="lift record replacing the built-in curve "
                             "(path, inline JSON, or -), or canonical-C")
    verify.add_argument("--output", metavar="PATH",
                        help="also write the certificate JSON here")
    verify.add_argument("--seed", type=_int,
                        help="recheck with a seeded random pairing table")
    verify.set_defaults(handler=cmd_verify)


def _add_eval(sub):
    ev = sub.add_parser("eval", help="evaluate a Laurent expression")
    ev.add_argument("expression", help="expression text, or - for stdin")
    ev.add_argument("--genus", type=_int, default=2,
                    help="ring size when surface variables appear")
    ev.add_argument("--domain", choices=("Z", "Q"), default="Z")
    ev.set_defaults(handler=cmd_eval)


def _add_rho(sub):
    rh = sub.add_parser(
        "rho", help="representation matrix of a lift, with balance report")
    rh.add_argument("lift",
                    help="lift JSON (path, inline, or -), or canonical-C")
    # unset: canonical-C at genus 2, a lift record at its own genus
    rh.add_argument("--genus", type=_int)
    rh.add_argument("--format", choices=("text", "json"), default="text")
    rh.set_defaults(handler=cmd_rho)


def _add_tree(sub):
    tree = sub.add_parser("tree", help="queries against the lattice tree")
    tree.set_defaults(handler=cmd_tree)
    return tree.add_subparsers(dest="query", required=True), _TREE_QUERIES


def _add_distance(queries):
    dist = queries.add_parser(
        "distance", help="distance between two vertices")
    dist.add_argument("left", help="'base', '(a; r)', or a basis matrix")
    dist.add_argument("right", help="'base', '(a; r)', or a basis matrix")


def _add_fixes(queries):
    fixes = queries.add_parser(
        "fixes", help="whether a matrix fixes a vertex")
    fixes.add_argument("matrix")
    fixes.add_argument("vertex")


def _add_translation(queries):
    trans = queries.add_parser(
        "translation", help="minimal displacement of a matrix")
    trans.add_argument("matrix")
    trans.add_argument("--ball-radius", type=_int,
                       help="accepted and ignored: the length is read "
                            "from the trace, exactly")


def _add_ball(queries):
    ball = queries.add_parser("ball", help="DOT drawing of a metric ball")
    ball.add_argument("center", nargs="?", default="base")
    ball.add_argument("--ball-radius", type=_int, default=2)


def _add_normal_form(sub):
    nf = sub.add_parser(
        "normal-form", help="alternating letter decomposition")
    nf.add_argument("matrix", help="matrix literal, path, or - for stdin")
    nf.add_argument("--format", choices=("text", "json"), default="text")
    nf.set_defaults(handler=cmd_normal_form)


_SUBCOMMANDS = {"verify": _add_verify, "eval": _add_eval, "rho": _add_rho,
                "tree": _add_tree, "normal-form": _add_normal_form}
_TREE_QUERIES = {"distance": _add_distance, "fixes": _add_fixes,
                 "translation": _add_translation, "ball": _add_ball}


def _add_named(sub, table, argv: list[str]):
    """Add to sub the parser of the command argv[0] names in table; all of
    them when it names none (no arguments, -h, --, an option, an unknown
    name), so that the help and the "invalid choice" error list every
    command.  An entry with commands of its own returns their subparsers
    and table, and argv[1:] names one of those the same way."""
    named = table.get(argv[0]) if argv else None
    for add in (named,) if named else table.values():
        nested = add(sub)
        if nested is not None:
            _add_named(*nested, argv[1:] if named else [])


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of the subcommand (and tree query) argv names."""
    parser = _ArgumentParser(
        prog="twistcert",
        description="Exact certificates for separating twist subgroups.")
    _add_named(parser.add_subparsers(dest="subcommand", required=True),
               _SUBCOMMANDS, argv)
    return parser


# an error message echoes input text, which may hold line breaks: they
# are printed escaped, so that every error is one line
_ESCAPED_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (UsageError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {str(exc).translate(_ESCAPED_LINE_BREAKS)}",
              file=sys.stderr)
        return 2
    except BrokenPipeError as exc:  # the reader closed standard output
        # what is still buffered goes to os.devnull: exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(BrokenPipeError):  # 2>&1 into that pipe
            print(f"error: cannot write standard output: {exc.strerror}",
                  file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
