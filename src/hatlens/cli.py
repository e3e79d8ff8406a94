"""Command-line front end wiring the five analysis steps together.

Subcommands mirror the pipeline: ``validate`` a model, list its
``interactions``, ``trace`` propagation pathways, ``report`` everything,
and inspect or export catalogs with ``lenses``.  ``map`` and ``specialise``
(with ``--sfm``) print the report's CSV table, ``mitigations`` its suggestions.

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


def _say(line: str) -> None:
    """Print ``line`` to standard error if it can: a lost diagnostic must not
    change the exit code or stop the run.  ``print(file=None)`` writes to stdout."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def _fail(message: str) -> None:
    """Stop the command as a usage error, with ``message``."""
    _say(f"error: {message}")
    sys.exit(EXIT_USAGE)


def _parse_file(path: str | Path, parser):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parser(handle.read())
    except (OSError, UnicodeDecodeError, DslParseError) as exc:
        exc.filename = path
        raise


def load_catalogs(lens_paths: Sequence[str | Path] = (),
                  mit_paths: Sequence[str | Path] = (), *,
                  builtin_lenses: bool = True) -> tuple[LensCatalog, list[Mitigation]]:
    """The lens and mitigation catalogs of a run: the builtins (the builtin
    lenses only if ``builtin_lenses``) followed by each file in order.  A file
    that cannot be read or parsed raises its ``OSError``, ``UnicodeDecodeError``
    or ``DslParseError``; one that repeats a lens, mode or mitigation id raises
    ``CatalogError``."""
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
        _say(f"{args.model}:{line}: {diag.severity.value}: {diag.code}: {diag.message}")
    if has_errors(diagnostics):
        sys.exit(EXIT_FINDINGS)
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
        out = codecs.getwriter("utf-8")(out.buffer)
    write(out)
    out.flush()


def _write(args, text: str) -> None:
    _output(args, lambda out: out.write(text))


def _trace_pathways(args, model: Ooda2Model, interactions: list[Interaction],
                    catalog: LensCatalog, mitigations: list[Mitigation]) -> list[TracePathway]:
    interaction = interaction_by_id(interactions, args.interaction)
    pathways: list[TracePathway] = []
    for direction in TraceDirection:  # upstream first
        if args.direction in (direction.value, "both"):
            try:
                found = trace(model, interaction, args.category, direction,
                              max_depth=args.max_depth, mitigation_catalog=mitigations)
                # Up + down keeps both walks' forks (``Pathways.__add__``).
                pathways = pathways + found if pathways else found
            except ValueError as exc:
                _fail(str(exc))
    defined = {mode.category for mode in catalog.modes()}
    if args.category not in defined and not any(
            args.category in mitigation.categories for mitigation in mitigations):
        # No node responds to it (validate refuses such a response) and no
        # mitigation damps it, so the trace measured nothing.
        _say(f"warning: category '{args.category}' is not defined by the loaded lenses "
             f"(defined: {', '.join(sorted(defined))}); every step is Neutral")
    return pathways


def _bundle(args) -> tuple[Ooda2Model, ReportBundle]:
    """The model, and the report of its table, ``--sfm`` and trace flags."""
    catalog, mitigations, model = _inputs(args)
    interactions = extract_interactions(model)
    sfms = _parse_file(args.sfm, parse_sfm_bindings) if args.sfm else []
    table = apply_specialisations(map_failure_modes(interactions, catalog), sfms)
    pathways = ([] if args.interaction is None
                else _trace_pathways(args, model, interactions, catalog, mitigations))
    # The table has every sfm's interaction and mode, so no lookup can fail.
    return model, ReportBundle(table, pathways, derive_second_order(sfms, interactions, catalog),
                               suggest_mitigations(table, mitigations))


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


def _render(args, model: Ooda2Model, bundle: ReportBundle) -> None:
    """Write ``bundle``, or the part of it that ``args.format`` shows."""
    if args.format == "json":
        _output(args, lambda out: write_json(bundle, out))
    elif args.format == "text":
        _output(args, lambda out: out.writelines(f"{pathway_label(p)}\n" for p in bundle.pathways))
    elif args.format == "csv":
        _write(args, emit_csv(bundle.table))
    elif args.format == "md":
        _write(args, emit_markdown(bundle))
    else:
        _write(args, emit_dot(model, bundle.pathways))


def _cmd_trace(args) -> None:
    catalog, mitigations, model = _inputs(args)
    pathways = _trace_pathways(args, model, extract_interactions(model), catalog, mitigations)
    _render(args, model, ReportBundle(pathways=pathways))


def _cmd_mitigations(args) -> None:
    rows = [
        [row.i_id, "" if row.sfm_id is None else row.sfm_id,
         row.generic_mode_category, mitigation.id, mitigation.name]
        for row, mitigation in _bundle(args)[1].suggestions
    ]
    _write(args, csv_text(
        ["I ID", "SFM ID", "Category", "Mitigation ID", "Mitigation Name"], rows))


def _cmd_report(args) -> None:
    if (args.interaction is None) != (args.category is None):
        _fail("--interaction and --category must be given together")
    model, bundle = _bundle(args)
    if args.format == "dot" and not bundle.pathways:
        _fail("--format dot needs --interaction and --category")
    _render(args, model, bundle)


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's text, through ``_say``: argparse's prints usage to stdout if stderr is None.
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        sys.exit(EXIT_USAGE)


def _build_parser(running: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: with only the subparser of ``running`` when that
    names a subcommand (the top-level usage names none, so no help or error
    text changes), and with all of them otherwise."""
    parser = _Parser(
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
                required=required, default=None if required else "both",
                help="trace direction" if required else "trace direction (default: both)"),
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

    commands = [
        ("validate", _inputs, "check a model and print diagnostics", [model]),
        ("interactions", _cmd_interactions, "list boundary-crossing interactions as CSV",
         [model, output]),
        ("map", _cmd_report, "map generic failure modes onto interactions", [model, output]),
        ("specialise", _cmd_report, "map failure modes and apply a bindings file",
         [model, sfm(True), output]),
        ("trace", _cmd_trace, "enumerate propagation pathways",
         [model, trace_flags(True), trace_format, output]),
        ("mitigations", _cmd_mitigations, "suggest catalog mitigations for table rows",
         [model, sfm(False), output]),
        ("report", _cmd_report, "render the full analysis",
         [model, sfm(False), trace_flags(False), report_format, output]),
        ("lenses", _cmd_lenses, "list or export lens catalogs", [export, lens, output]),
    ]
    for name, command, help_text, groups in [
            entry for entry in commands if entry[0] == running] or commands:
        sub = subparsers.add_parser(name, help=help_text)
        for names, options in (call for group in groups for call in group):
            sub.add_argument(*names, **options)
        # format only here: a parser default would override trace's --format default.
        sub.set_defaults(func=command, sfm=None, interaction=None, category=None,
                         **({"format": "csv"} if name in ("map", "specialise") else {}))
    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one CLI invocation; returns the process exit code.  A library
    finding (conflicting catalogs, a binding that does not apply, an unknown
    id, pathways that do not fit the model) prints ``error: <message>`` and
    returns 1.  An input that cannot be read or parsed prints its error and returns 2."""
    # A command's data is acyclic and lives until the command ends, and so
    # does the parser, so the cyclic collector would only walk them again and
    # again: it is paused while the arguments are parsed and the command runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        args.func(args)
    except (CatalogError, SpecialisationError, UnknownIdError, ReportError) as exc:
        _say(f"error: {exc}")
        return EXIT_FINDINGS
    except DslParseError as exc:
        for diag in exc.diagnostics:
            _say(f"{exc.filename}:{diag.line}:{diag.column}: error: {diag.message}")
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        # Only a read gets here: ``_output`` fails every write as ``cannot write``.
        reason = getattr(exc, "strerror", None) or exc
        _say(f"error: cannot read {exc.filename}: {reason}")
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    finally:
        if collecting:
            gc.enable()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """``run``, then flush standard output.  With ``argv`` None, the process's
    own call (the ``hatlens`` script, ``python -m hatlens.cli``), it then
    freezes the cyclic collector; a list leaves the collector as it was."""
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
            _say(f"error: cannot write standard output: {exc.strerror or exc}")
            code = EXIT_USAGE
    if argv is None:
        # The process ends next: its shutdown collections would re-walk the
        # ~15k objects the imports made, all live.  They skip frozen ones.
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
