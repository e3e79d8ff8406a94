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
    _IDENT,
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


def _fail(message: str) -> None:
    """Stop the command as a usage error, with ``message``."""
    print(f"error: {message}", file=sys.stderr)
    raise _CliError(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(f"cannot read {path}: {exc}")


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
    that does not parse stops the run; one that repeats a lens, mode or
    mitigation id raises ``CatalogError``."""
    catalog = builtin_catalog() if builtin_lenses else LensCatalog(lenses=[])
    for path in lens_paths:
        catalog = merge_catalogs(catalog, _parse_file(path, parse_lens_catalog))
    mitigations = list(builtin_mitigations())
    seen = {mit.id for mit in mitigations}
    for path in mit_paths:
        for mit in _parse_file(path, parse_mitigation_catalog):
            if mit.id in seen:
                raise CatalogError(f"duplicate mitigation id '{mit.id}' from {path}")
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
        # The regular file opened above is emptied while the path, followed
        # through links, still leads to it, so that no other name of it keeps
        # partial data, and removed only while the path itself names it: a
        # device, a FIFO and a symlink's target are never removed.
        with contextlib.suppress(OSError):
            if opened is not None and stat.S_ISREG(opened.st_mode) and os.path.samestat(
                    opened, os.stat(args.output)):
                os.truncate(args.output, 0)
                if os.path.samestat(opened, os.lstat(args.output)):
                    os.remove(args.output)
        _fail(f"cannot write {args.output or 'standard output'}: "
              f"{exc.strerror or exc}")


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
    if not args.sfm:
        return table, []
    sfms = _parse_file(args.sfm, parse_sfm_bindings)
    return apply_specialisations(table, sfms), sfms


def _trace_pathways(args, model: Ooda2Model, interactions: list[Interaction],
                    mitigations: list[Mitigation]) -> list[TracePathway]:
    interaction = interaction_by_id(interactions, args.interaction)
    pathways: list[TracePathway] = []
    for direction in TraceDirection:  # upstream first
        if args.direction in (direction.value, "both"):
            try:
                pathways.extend(trace(model, interaction, args.category, direction,
                                      max_depth=args.max_depth,
                                      mitigation_catalog=mitigations))
            except ValueError as exc:
                _fail(str(exc))
    return pathways


def _cmd_interactions(args) -> None:
    _, _, model = _inputs(args)
    rows = [
        [interaction.i_id, interaction.name, interaction.machine_stage.display(),
         interaction.human_stage.display(), interaction.direction.display()]
        for interaction in extract_interactions(model)
    ]
    _write(args, csv_text(
        ["I ID", "Interaction Name", "Machine Stage", "Human Stage", "Direction"],
        rows))


def _cmd_map(args) -> None:
    catalog, _, model = _inputs(args)
    table, _ = _build_table(args, extract_interactions(model), catalog)
    _write(args, emit_csv(table))


def _cmd_trace(args) -> None:
    _, mitigations, model = _inputs(args)
    interactions = extract_interactions(model)
    pathways = _trace_pathways(args, model, interactions, mitigations)
    if args.format == "json":
        bundle = ReportBundle(pathways=pathways)
        _output(args, lambda out: write_json(bundle, out))
    elif args.format == "text":
        _write(args, "".join(f"{pathway_label(pathway)}\n" for pathway in pathways))
    else:
        _write(args, emit_dot(model, pathways))


def _cmd_mitigations(args) -> None:
    catalog, mitigations, model = _inputs(args)
    table, _ = _build_table(args, extract_interactions(model), catalog)
    rows = [
        [row.i_id, "" if row.sfm_id is None else row.sfm_id,
         row.generic_mode_category, mitigation.id, mitigation.name]
        for row, mitigation in suggest_mitigations(table, mitigations)
    ]
    _write(args, csv_text(
        ["I ID", "SFM ID", "Category", "Mitigation ID", "Mitigation Name"], rows))


def _cmd_report(args) -> None:
    if (args.interaction is None) != (args.category is None):
        _fail("--interaction and --category must be given together")
    catalog, mitigations, model = _inputs(args)
    interactions = extract_interactions(model)
    table, sfms = _build_table(args, interactions, catalog)
    pathways: list[TracePathway] = []
    if args.interaction is not None:
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
            _fail("--format dot needs --interaction and --category")
        _write(args, emit_dot(model, pathways))


def _cmd_lenses(args) -> None:
    catalog, _ = load_catalogs(args.lens, builtin_lenses=not args.no_builtin)
    if args.export:
        _write(args, serialize_lens_catalog(catalog))
    else:
        _write(args, "".join(f"{lens.id}: {lens.name} ({len(lens.modes)} modes)\n"
                             for lens in catalog.lenses))


def _ascii_int(text: str) -> int:
    # ASCII digits only, the rule of the .sfm format: argparse's int would
    # also take other scripts' digits, a sign, spaces and underscores.
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _category(text: str) -> str:
    # A token by the rule of the .lens ``category=``: other text names no
    # category, and would trace every step as Neutral.
    if _IDENT.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid category token: {text!r}")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatlens",
        description="Left-shift risk analysis for human-autonomy teaming: "
                    "model activity flows, extract cross-boundary interactions, "
                    "map failure modes, trace propagation, report.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")

    def arg(*names: str, **options):
        return names, options

    # Argument groups, each a list of add_argument calls in help order.
    lens = [
        arg("--lens", action="append", metavar="FILE", default=[],
            help="extra lens catalog (.lens); repeatable"),
        arg("--no-builtin", action="store_true",
            help="start from an empty lens catalog instead of the builtin lenses"),
    ]
    model = [
        arg("model", metavar="model.hat", help="activity model file"),
        *lens,
        arg("--mit", action="append", metavar="FILE", default=[],
            help="extra mitigation catalog (.mit); repeatable"),
        arg("--strict", action="store_true",
            help="treat boundary-crossing edges that do not target an Observe "
                 "action, and mitigations attached against their placement, as errors"),
    ]

    def sfm(required: bool):
        return [arg("--sfm", metavar="FILE", required=required,
                    help="specialised failure mode bindings (.sfm)")]

    def trace_flags(required: bool):
        return [
            arg("--interaction", type=_ascii_int, metavar="I-ID", required=required,
                help="interaction id to trace from"),
            arg("--category", type=_category, metavar="TOKEN", required=required,
                help="failure mode category driving gain lookups"),
            arg("--direction", choices=[*(d.value for d in TraceDirection), "both"],
                required=required, default="both",
                help="trace direction (default: both)"),
            arg("--max-depth", type=_ascii_int, default=DEFAULT_MAX_DEPTH, metavar="N",
                help="pathway length cap (default: %(default)s)"),
        ]

    output = [arg("-o", "--output", metavar="PATH",
                  help="write data here instead of standard output")]
    trace_format = [arg("--format", choices=["text", "json", "dot"], default="text",
                        help="output format (default: %(default)s)")]
    report_format = [arg("--format", choices=["csv", "md", "json", "dot"], required=True,
                         help="output format")]
    export = [arg("--export", action="store_true",
                  help="print the catalog in its file format")]

    for name, command, help_text, groups in [
        ("validate", _inputs, "check a model and print diagnostics", [model]),
        ("interactions", _cmd_interactions, "list boundary-crossing interactions as CSV",
         [model, output]),
        ("map", _cmd_map, "map generic failure modes onto interactions", [model, output]),
        ("specialise", _cmd_map, "map failure modes and apply a bindings file",
         [model, sfm(True), output]),
        ("trace", _cmd_trace, "enumerate propagation pathways",
         [model, trace_flags(True), trace_format, output]),
        ("mitigations", _cmd_mitigations, "suggest catalog mitigations for table rows",
         [model, sfm(False), output]),
        ("report", _cmd_report, "render the full analysis",
         [model, sfm(False), trace_flags(False), report_format, output]),
        ("lenses", _cmd_lenses, "list or export lens catalogs", [export, lens, output]),
    ]:
        sub = subparsers.add_parser(name, help=help_text)
        for names, options in (call for group in groups for call in group):
            sub.add_argument(*names, **options)
        sub.set_defaults(func=command, sfm=None)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one CLI invocation; returns the process exit code.  A library
    finding (conflicting catalogs, a binding that does not apply, an unknown
    id, pathways that do not fit the model) prints ``error: <message>`` and
    returns 1."""
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
        args.func(args)
    except (CatalogError, SpecialisationError, UnknownIdError, ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    except _CliError as exc:
        return exc.code
    finally:
        if collecting:
            gc.enable()
    return EXIT_OK


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
