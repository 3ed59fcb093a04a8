"""Command-line entry point: enumeration, construction, verification."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .collection import Bounds
from .interleave import initial_owc
from .pasting import enumerate_trees, tree_to_json
from .serialize import state_text
from .util import canonical_json
from . import verify


def _bounds_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=2, help="maximum dimension")
    parser.add_argument("--max-arity-size", type=int, default=5)
    parser.add_argument("--max-term-size", type=int, default=2)


def _write(out: str | None, text: str) -> bool:
    """Write ``text`` to the file ``out``, or to stdout if there is none;
    False, with one line on stderr, if the file cannot be written."""
    try:
        Path(out).write_text(text) if out else sys.stdout.write(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return False
    return True


def cmd_trees(dim: int, max_size: int, out: str | None) -> int:
    trees = enumerate_trees(dim, max_size)
    if not _write(out, "".join(canonical_json(tree_to_json(t)) + "\n" for t in trees)):
        return 2
    print(f"count {len(trees)}", file=sys.stderr)
    return 0


def cmd_build_initial(bounds: Bounds, out: str | None) -> int:
    state = initial_owc(bounds)
    if not _write(out, state_text(state)):
        return 2
    for k in range(state.collection.max_dim + 1):
        print(f"dim {k}: {len(state.collection.cells_at(k))}")
    return 0


def _suites_reading(fixture) -> list[str]:
    """The suites ``all`` runs on a fixture: those that read its kind.  A
    state has a ``stage``, substitution ``cases`` are for ``monoid-laws``,
    and anything else is read as a globular set."""
    if isinstance(fixture, dict) and "stage" in fixture:
        return [name for name in verify.SUITE_NAMES if name not in ("globularity", "monoid-laws")]
    if isinstance(fixture, dict) and "cases" in fixture:
        return ["monoid-laws"]
    return ["globularity"]


def cmd_verify(suites: list[str], bounds: Bounds, fixture_path: str | None, out: str | None) -> int:
    for name in suites:
        if name != "all" and name not in verify.SUITE_NAMES:
            print(f"unknown suite: {name}", file=sys.stderr)
            return 2
    fixture = None
    if fixture_path is not None:
        try:
            fixture = json.loads(Path(fixture_path).read_text())
        except OSError as exc:
            print(f"cannot read fixture: {exc}", file=sys.stderr)
            return 2
        except (ValueError, RecursionError) as exc:
            print(f"malformed fixture: {exc!r}", file=sys.stderr)
            return 2
        if fixture is None:
            # the suites would read no fixture and build their own
            print("malformed fixture: the file holds JSON null", file=sys.stderr)
            return 2
    if "all" in suites:
        suites = list(verify.SUITE_NAMES) if fixture_path is None else _suites_reading(fixture)
    reports = []
    failed = False
    for name in suites:
        try:
            rep = verify.run_suite(name, bounds, fixture)
        except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
            # with the names checked and the file parsed, these come from
            # decoding; RecursionError from nesting deeper than the decoders go
            if fixture is None:
                raise
            print(f"malformed fixture: {exc!r}", file=sys.stderr)
            return 2
        reports.append(rep.to_json())
        failed = failed or not rep.passed
        print(f"{name}: {'pass' if rep.passed else 'FAIL'} ({rep.ms:.0f} ms)")
    if out and not _write(out, json.dumps(reports, indent=2, sort_keys=True) + "\n"):
        return 2
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="globop",
        description="Pasting-diagram enumeration and the interleaved free "
        "operad-with-contraction construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="enumerate pasting diagrams as JSON lines")
    p_trees.add_argument("--dim", type=int, required=True)
    p_trees.add_argument("--max-size", type=int, required=True)
    p_trees.add_argument("--out")

    p_build = sub.add_parser("build-initial", help="build the bounded initial structure")
    _bounds_args(p_build)
    p_build.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run verification suites")
    _bounds_args(p_verify)
    p_verify.add_argument(
        "--suite",
        action="append",
        required=True,
        help="suite name, repeatable; 'all' runs every suite",
    )
    p_verify.add_argument("--input", help="fixture file validated instead of fresh builds")
    p_verify.add_argument("--out", help="write reports as a JSON document")

    args = parser.parse_args(argv)
    if args.command == "trees":
        if args.dim < 0:
            print("invalid bounds: dim must be non-negative", file=sys.stderr)
            return 2
        return cmd_trees(args.dim, args.max_size, args.out)
    try:
        bounds = Bounds(args.dim, args.max_arity_size, args.max_term_size)
        bounds.check_unit(bounds.max_dim)
    except ValueError as exc:
        print(f"invalid bounds: {exc}", file=sys.stderr)
        return 2
    if args.command == "build-initial":
        return cmd_build_initial(bounds, args.out)
    return cmd_verify(args.suite, bounds, args.input, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
