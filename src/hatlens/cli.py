"""Command-line front end wiring the five analysis steps together.

Subcommands mirror the pipeline: ``validate`` a model, list its
``interactions``, ``map`` generic failure modes onto them, ``specialise``
the table with a bindings file, ``trace`` propagation pathways,
``mitigations`` to match catalog entries against the table, ``report`` to
render everything, and ``lenses`` to inspect or export catalogs.

Exit codes: 0 success, 1 analysis findings at error severity, 2 usage or
parse failure.  Diagnostics go to standard error; data goes to standard
output unless ``-o`` is given.  There is no hidden state: the same files
and flags always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import errno
import gc
import os
import stat
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

from .dsl import (
    DslParseError,
    parse_lens_catalog,
    parse_mitigation_catalog,
    parse_model,
    parse_sfm_bindings,
    serialize_lens_catalog,
)
from .interactions import Interaction, extract_interactions, interaction_by_id
from .lenses import CatalogError, LensCatalog, builtin_catalog, merge_catalogs
from .mapping import SpecialisationError, apply_specialisations, map_failure_modes
from .mitigations import Mitigation, builtin_mitigations, suggest_mitigations
from .model import Ooda2Model, Strictness, UnknownIdError, has_errors, validate
from .report import (
    ReportBundle,
    ReportError,
    csv_text,
    emit_csv,
    emit_dot,
    emit_markdown,
    pathway_label,
    write_json,
)
from .tracing import DEFAULT_MAX_DEPTH, TraceDirection, TracePathway, derive_second_order, trace

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class _CliError(Exception):
    """Internal control flow: abort the subcommand with an exit code."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _fail(message: str, code: int = EXIT_FINDINGS) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise _CliError(code)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}", EXIT_USAGE)
    except UnicodeDecodeError as exc:
        _fail(f"cannot read {path}: {exc}", EXIT_USAGE)


def _parse_file(path: str, parser):
    text = _read(path)
    try:
        return parser(text)
    except DslParseError as exc:
        for diag in exc.diagnostics:
            print(f"{path}:{diag.line}:{diag.column}: error: {diag.message}",
                  file=sys.stderr)
        raise _CliError(EXIT_USAGE) from None


def load_catalogs(lens_paths: Sequence[str | Path] = (),
                  mit_paths: Sequence[str | Path] = (), *,
                  builtin_lenses: bool = True) -> tuple[LensCatalog, list[Mitigation]]:
    """The lens and mitigation catalogs of a run: the builtins (the builtin
    lenses only if ``builtin_lenses``) followed by each file in order.  A file
    that does not parse, or that repeats a lens, mode or mitigation id,
    stops the run."""
    catalog = builtin_catalog() if builtin_lenses else LensCatalog(lenses=[])
    for path in lens_paths:
        extra = _parse_file(path, parse_lens_catalog)
        try:
            catalog = merge_catalogs(catalog, extra)
        except CatalogError as exc:
            _fail(str(exc))
    mitigations = list(builtin_mitigations())
    seen = {mit.id for mit in mitigations}
    for path in mit_paths:
        for mit in _parse_file(path, parse_mitigation_catalog):
            if mit.id in seen:
                _fail(f"duplicate mitigation id '{mit.id}' from {path}")
            seen.add(mit.id)
            mitigations.append(mit)
    return catalog, mitigations


def _inputs(args) -> tuple[LensCatalog, list[Mitigation], Ooda2Model]:
    """The catalogs and the model of a model command.  Parse and validate the
    model against the catalogs; print diagnostics; stop on errors."""
    catalog, mitigations = load_catalogs(args.lens, args.mit,
                                         builtin_lenses=not args.no_builtin)
    model = _parse_file(args.model, parse_model)
    strictness = Strictness.STRICT if args.strict else Strictness.LENIENT
    diagnostics = validate(model, strictness, lens_catalog=catalog,
                           mitigation_catalog=mitigations)
    for diag in diagnostics:
        line = diag.line if diag.line is not None else 0
        print(f"{args.model}:{line}: {diag.severity.value}: {diag.code}: "
              f"{diag.message}", file=sys.stderr)
    if has_errors(diagnostics):
        raise _CliError(EXIT_FINDINGS)
    return catalog, mitigations, model


def _output(args, write) -> None:
    """Call ``write`` with the data's destination: the ``-o`` file, or
    standard output.  The data is UTF-8 either way.  A failed write is a
    usage error, and it leaves no partial ``-o`` file behind."""
    opened = None
    try:
        if not args.output:
            _to_stdout(write)
            return
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            opened = os.fstat(handle.fileno())
            write(handle)
    except OSError as exc:
        # Remove only the regular file opened above, and only while the path
        # still names it: never a device, a FIFO or a symlink's target.
        with contextlib.suppress(OSError):
            if opened is not None and stat.S_ISREG(opened.st_mode) and os.path.samestat(
                    opened, os.lstat(args.output)):
                os.remove(args.output)
        _fail(f"cannot write {args.output or 'standard output'}: "
              f"{exc.strerror or exc}", EXIT_USAGE)


def _to_stdout(write) -> None:
    # A stdout in another encoding gets the bytes of ``-o`` through its
    # binary buffer; one that is UTF-8 already, or has no buffer, as is.
    out = sys.stdout
    if out is None:  # the process started with standard output closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    if hasattr(out, "buffer") and codecs.lookup(out.encoding).name != "utf-8":
        out.flush()
        binary = out.buffer
        out = SimpleNamespace(write=lambda text: binary.write(text.encode("utf-8")),
                              flush=binary.flush)
    write(out)
    out.flush()


def _write(args, text: str) -> None:
    _output(args, lambda out: out.write(text))


def _build_table(args, interactions: list[Interaction], catalog: LensCatalog):
    table = map_failure_modes(interactions, catalog)
    sfms = []
    if args.sfm:
        sfms = _parse_file(args.sfm, parse_sfm_bindings)
        try:
            table = apply_specialisations(table, sfms)
        except SpecialisationError as exc:
            _fail(str(exc))
    return table, sfms


def _trace_pathways(args, model: Ooda2Model, interactions: list[Interaction],
                    mitigations: list[Mitigation]) -> list[TracePathway]:
    try:
        interaction = interaction_by_id(interactions, args.interaction)
    except UnknownIdError as exc:
        _fail(str(exc))
    directions = {
        "up": [TraceDirection.UPSTREAM],
        "down": [TraceDirection.DOWNSTREAM],
        "both": [TraceDirection.UPSTREAM, TraceDirection.DOWNSTREAM],
    }[args.direction]
    pathways: list[TracePathway] = []
    for direction in directions:
        try:
            pathways.extend(trace(model, interaction, args.category, direction,
                                  max_depth=args.max_depth,
                                  mitigation_catalog=mitigations))
        except ValueError as exc:
            _fail(str(exc), EXIT_USAGE)
    return pathways


def _dot(model: Ooda2Model, pathways: list[TracePathway]) -> str:
    try:
        return emit_dot(model, pathways)
    except ReportError as exc:
        _fail(str(exc))


def _cmd_validate(args) -> int:
    _inputs(args)
    return EXIT_OK


def _cmd_interactions(args) -> int:
    _, _, model = _inputs(args)
    rows = [
        [interaction.i_id, interaction.name, interaction.machine_stage.display(),
         interaction.human_stage.display(), interaction.direction.display()]
        for interaction in extract_interactions(model)
    ]
    _write(args, csv_text(
        ["I ID", "Interaction Name", "Machine Stage", "Human Stage", "Direction"],
        rows))
    return EXIT_OK


def _cmd_map(args) -> int:
    catalog, _, model = _inputs(args)
    table, _ = _build_table(args, extract_interactions(model), catalog)
    _write(args, emit_csv(table))
    return EXIT_OK


def _cmd_trace(args) -> int:
    _, mitigations, model = _inputs(args)
    interactions = extract_interactions(model)
    pathways = _trace_pathways(args, model, interactions, mitigations)
    if args.format == "json":
        bundle = ReportBundle(pathways=pathways)
        _output(args, lambda out: write_json(bundle, out))
    elif args.format == "text":
        _write(args, "".join(f"{pathway_label(pathway)}\n" for pathway in pathways))
    else:
        _write(args, _dot(model, pathways))
    return EXIT_OK


def _cmd_mitigations(args) -> int:
    catalog, mitigations, model = _inputs(args)
    table, _ = _build_table(args, extract_interactions(model), catalog)
    rows = [
        [row.i_id, "" if row.sfm_id is None else row.sfm_id,
         row.generic_mode_category, mitigation.id, mitigation.name]
        for row, mitigation in suggest_mitigations(table, mitigations)
    ]
    _write(args, csv_text(
        ["I ID", "SFM ID", "Category", "Mitigation ID", "Mitigation Name"], rows))
    return EXIT_OK


def _cmd_report(args) -> int:
    catalog, mitigations, model = _inputs(args)
    interactions = extract_interactions(model)
    table, sfms = _build_table(args, interactions, catalog)
    pathways: list[TracePathway] = []
    if args.interaction is not None and args.category:
        pathways = _trace_pathways(args, model, interactions, mitigations)
    # The table has every sfm's interaction and mode, so no lookup can fail.
    second_order = derive_second_order(sfms, interactions, catalog)
    suggestions = suggest_mitigations(table, mitigations)
    bundle = ReportBundle(table=table, pathways=pathways,
                          second_order=second_order, suggestions=suggestions)
    if args.format == "csv":
        _write(args, emit_csv(table))
    elif args.format == "md":
        _write(args, emit_markdown(bundle))
    elif args.format == "json":
        _output(args, lambda out: write_json(bundle, out))
    else:
        if not pathways:
            _fail("--format dot needs --interaction and --category", EXIT_USAGE)
        _write(args, _dot(model, pathways))
    return EXIT_OK


def _cmd_lenses(args) -> int:
    catalog, _ = load_catalogs(args.lens, builtin_lenses=not args.no_builtin)
    if args.export:
        _write(args, serialize_lens_catalog(catalog))
        return EXIT_OK
    lines = [f"{lens.id}: {lens.name} ({len(lens.modes)} modes)"
             for lens in catalog.lenses]
    _write(args, "".join(f"{line}\n" for line in lines))
    return EXIT_OK


def _ascii_int(text: str) -> int:
    # ASCII digits only, the rule of the .sfm format: argparse's int would
    # also take other scripts' digits, a sign, spaces and underscores.
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatlens",
        description="Left-shift risk analysis for human-autonomy teaming: "
                    "model activity flows, extract cross-boundary interactions, "
                    "map failure modes, trace propagation, report.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")

    def model_arg(sub):
        sub.add_argument("model", metavar="model.hat", help="activity model file")

    def lens_flags(sub):
        sub.add_argument("--lens", action="append", metavar="FILE", default=[],
                         help="extra lens catalog (.lens); repeatable")
        sub.add_argument("--no-builtin", action="store_true",
                         help="start from an empty lens catalog instead of the "
                              "builtin lenses")

    def catalog_flags(sub):
        lens_flags(sub)
        sub.add_argument("--mit", action="append", metavar="FILE", default=[],
                         help="extra mitigation catalog (.mit); repeatable")

    def strict_flag(sub):
        sub.add_argument("--strict", action="store_true",
                         help="treat boundary-crossing edges that do not target "
                              "an Observe action as errors")

    def sfm_flag(sub, required=False):
        sub.add_argument("--sfm", metavar="FILE", required=required,
                         help="specialised failure mode bindings (.sfm)")

    def trace_flags(sub, direction_required):
        sub.add_argument("--interaction", type=_ascii_int, metavar="I-ID",
                         required=direction_required,
                         help="interaction id to trace from")
        sub.add_argument("--category", metavar="TOKEN",
                         required=direction_required,
                         help="failure mode category driving gain lookups")
        sub.add_argument("--direction", choices=["up", "down", "both"],
                         required=direction_required, default="both",
                         help="trace direction (default: both)")
        sub.add_argument("--max-depth", type=_ascii_int, default=DEFAULT_MAX_DEPTH,
                         metavar="N", help="pathway length cap (default: %(default)s)")

    def output_flag(sub):
        sub.add_argument("-o", "--output", metavar="PATH",
                         help="write data here instead of standard output")

    sub = subparsers.add_parser("validate", help="check a model and print diagnostics")
    model_arg(sub); catalog_flags(sub); strict_flag(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subparsers.add_parser("interactions",
                                help="list boundary-crossing interactions as CSV")
    model_arg(sub); catalog_flags(sub); strict_flag(sub); output_flag(sub)
    sub.set_defaults(func=_cmd_interactions)

    sub = subparsers.add_parser("map",
                                help="map generic failure modes onto interactions")
    model_arg(sub); catalog_flags(sub); strict_flag(sub); output_flag(sub)
    sub.set_defaults(func=_cmd_map, sfm=None)

    sub = subparsers.add_parser("specialise",
                                help="map failure modes and apply a bindings file")
    model_arg(sub); catalog_flags(sub); strict_flag(sub); sfm_flag(sub, required=True)
    output_flag(sub)
    sub.set_defaults(func=_cmd_map)

    sub = subparsers.add_parser("trace", help="enumerate propagation pathways")
    model_arg(sub); catalog_flags(sub); strict_flag(sub)
    trace_flags(sub, direction_required=True)
    sub.add_argument("--format", choices=["text", "json", "dot"], default="text",
                     help="output format (default: %(default)s)")
    output_flag(sub)
    sub.set_defaults(func=_cmd_trace)

    sub = subparsers.add_parser("mitigations",
                                help="suggest catalog mitigations for table rows")
    model_arg(sub); catalog_flags(sub); strict_flag(sub); sfm_flag(sub)
    output_flag(sub)
    sub.set_defaults(func=_cmd_mitigations)

    sub = subparsers.add_parser("report", help="render the full analysis")
    model_arg(sub); catalog_flags(sub); strict_flag(sub); sfm_flag(sub)
    trace_flags(sub, direction_required=False)
    sub.add_argument("--format", choices=["csv", "md", "json", "dot"],
                     required=True, help="output format")
    output_flag(sub)
    sub.set_defaults(func=_cmd_report)

    sub = subparsers.add_parser("lenses", help="list or export lens catalogs")
    sub.add_argument("--export", action="store_true",
                     help="print the catalog in its file format")
    lens_flags(sub); output_flag(sub)
    sub.set_defaults(func=_cmd_lenses)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # A command's data is acyclic and lives until the command ends, so the
    # cyclic collector would only walk it again and again: it is paused
    # while the command runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _CliError as exc:
        return exc.code
    finally:
        if collecting:
            gc.enable()


def main(argv: list[str] | None = None) -> int:
    code = run(argv)
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # What is left in the buffer goes to the null device, so that the
        # flush at exit stays quiet.  ``run`` has reported a failed data
        # write; only the help text can get here unreported.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code == EXIT_OK:
            print(f"error: cannot write standard output: {exc.strerror or exc}",
                  file=sys.stderr)
            code = EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
