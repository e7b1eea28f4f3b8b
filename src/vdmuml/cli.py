"""Command-line interface for translating between class files and diagrams.

Subcommands: vdm2uml (classes to one .puml), uml2vdm (.puml to one .vdmpp per
class), roundtrip (in-memory there-and-back comparison) and check (the load of
vdm2uml or uml2vdm, writing nothing). Exit codes: 0 success, 1 parse, validation
or translation failure, 2 unreadable input, unwritable output or any roundtrip
load failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import os
import sys
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import Diagnostic, ParseFailure, TranslationError
from .model import (
    Config,
    Ordering,
    UmlClass,
    VdmClass,
    VdmModel,
    validate_model,
    validate_uml,
)
from .puml_frontend import parse_puml, print_puml
from .transform import canonicalize_model, lossy_members, uml_to_vdm, vdm_to_uml
from .vdm_frontend import parse_vdm, print_vdm

EXIT_OK = 0
EXIT_TRANSLATION = 1
EXIT_IO = 2
EXIT_USAGE = 64

GAMMA0_ENV = "VDMUML_GAMMA0"
GAMMA1_ENV = "VDMUML_GAMMA1"


class UsageError(Exception):
    pass


@dataclass
class RunReport:
    """Outcome of one CLI command, before anything is printed."""

    files_read: tuple[str, ...] = ()
    files_written: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()  # stderr lines
    summary: tuple[str, ...] = ()  # stdout lines
    exit_code: int = EXIT_OK


class _Failure(Exception):
    """Stops a command where the failure is found; str() of each problem
    is one stderr line of its report."""

    def __init__(self, problems, exit_code: int, files_read=()):
        super().__init__(exit_code)
        self.report = RunReport(tuple(files_read), (), tuple(map(str, problems)), (), exit_code)


def _reporting(command):
    """Return a _Failure raised inside the command as its report. The cyclic collector
    is off meanwhile: the models a command loads and builds hold no reference cycles."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> RunReport:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return command(*args, **kwargs)
        except _Failure as failure:
            return failure.report
        finally:
            if enabled:
                gc.enable()

    return run


# ---------------------------------------------------------------------------
# Shared plumbing


def _collect_vdm_files(inputs: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(p for p in path.rglob("*.vdmpp") if p.is_file()))
        elif path.exists():  # a file, or another non-directory left to _read
            files.append(path)
        else:
            raise _Failure([f"error: cannot read '{path}': {os.strerror(errno.ENOENT)}"], EXIT_IO)
    return files


def _read(path: Path) -> str:
    try:
        # utf-8-sig tolerates editor-written byte order marks
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise _Failure([f"error: cannot read '{path}': {reason}"], EXIT_IO) from None


def _load_vdm(inputs: list[str], fail_code: int) -> tuple[VdmModel, tuple[str, ...]]:
    """Collect, parse and validate a workspace into (model, files read).

    Raises _Failure: EXIT_IO for a missing or unreadable path, fail_code
    for no files, parse errors or an invalid model. Every file is
    parsed, so all parse errors are reported.
    """
    files = _collect_vdm_files(inputs)
    if not files:
        raise _Failure(["error: no .vdmpp files found"], fail_code)
    classes = []
    errors = []
    for path in files:
        try:
            classes.extend(parse_vdm(_read(path), origin=str(path)).classes)
        except ParseFailure as failure:
            errors.extend(failure.errors)
    read = tuple(str(p) for p in files)
    if errors:
        raise _Failure(errors, fail_code, read)
    model = VdmModel(tuple(classes))
    diags = validate_model(model)
    if diags:
        raise _Failure(diags, fail_code, read)
    return model, read


def _load_puml(input_path: str) -> tuple[VdmModel, tuple[str, ...]]:
    """Read, parse, validate and translate a diagram into (model, files
    read), checking all that uml2vdm checks before it writes; or raise _Failure."""
    path = Path(input_path)
    read = (str(path),)
    try:
        uml = parse_puml(_read(path), origin=str(path))
    except ParseFailure as failure:
        raise _Failure(failure.errors, EXIT_TRANSLATION, read) from None
    diags = validate_uml(uml)
    if diags:
        raise _Failure(diags, EXIT_TRANSLATION, read)
    if not uml.classes:  # as a workspace without .vdmpp files is
        raise _Failure(["error: no classes found"], EXIT_TRANSLATION, read)
    try:
        model = uml_to_vdm(uml)
    except TranslationError as e:
        raise _Failure(e.problems, EXIT_TRANSLATION, read) from None
    del uml  # the classes hold all that is checked and written; one model at a time
    diags = validate_model(model) or _case_collisions([c.name for c in model.classes])
    if diags:
        raise _Failure(diags, EXIT_TRANSLATION, read)
    return model, read


def _default_puml_output(inputs: list[str]) -> Path:
    paths = [Path(p) for p in inputs]
    if len(paths) == 1 and paths[0].is_dir():
        return paths[0] / f"{paths[0].resolve().name}.puml"
    if len(paths) == 1:  # a file, or a device or pipe read as one
        return paths[0].with_suffix(".puml")
    common = Path(os.path.commonpath([str(p.resolve()) for p in paths]))
    if not common.is_dir():
        common = common.parent
    return common / f"{common.name}.puml"


def _case_collisions(names: list[str]) -> list[Diagnostic]:
    """One problem per class whose file name differs from another's only
    in case: on a case-insensitive file system they would overwrite."""
    by_fold: dict[str, list[str]] = {}
    for name in names:
        by_fold.setdefault(name.casefold(), []).append(name)
    return [Diagnostic(name, f"file name '{name}.vdmpp' differs only in case from "
                       + ", ".join(f"'{other}.vdmpp'" for other in by_fold[name.casefold()] if other != name))
            for name in names if len(by_fold[name.casefold()]) > 1]


def _replaced_path(target: str, real_dir) -> str | int | None:
    """What the writer opens for target: the path of the file it names,
    which is replaced; None for a target written in place by its own name,
    one that ends in a separator (open then refuses it), exists and is not
    a regular file (/dev/null, a pipe) or is a descriptor link of another
    process; or the number N of a descriptor of this process named through
    its link (/dev/stdout, /dev/fd/1), written from N's offset as the
    shell's `>` and `>>` expect. real_dir is os.path.realpath, cached per
    run.
    """
    if not os.path.basename(target) or os.path.exists(target) and not os.path.isfile(target):
        return None
    given = path = os.path.abspath(target)
    for _ in range(40):  # as many links as the kernel follows
        if not os.path.islink(path):
            break
        head = real_dir(os.path.dirname(path))
        if head == f"/proc/{os.getpid()}/fd":
            return int(os.path.basename(path))
        if head.startswith("/proc/") and head.endswith("/fd"):
            return None
        path = os.path.join(head, os.readlink(path))
    head, tail = os.path.split(path)
    real = real_dir(head)
    return target if path == given and real == head else os.path.join(real, tail)


def _write_all(targets: list[str], write, new_dir: Path | None = None) -> None:
    """Write every target or none: write(i, stream) writes targets[i]'s text.

    Each file is written under a temporary name beside the file its target
    names, following symbolic links; once all are written, os.replace moves
    them into place. A target that _replaced_path finds is written in place.
    On any failure the temporaries, and new_dir if it was missing and made
    here, are removed.
    """
    suffix = f".{os.urandom(4).hex()}.tmp"
    real_dir = functools.lru_cache(maxsize=None)(os.path.realpath)
    replaced = [_replaced_path(target, real_dir) for target in targets]
    made = new_dir is not None and not new_dir.is_dir()
    if made:
        new_dir.mkdir(parents=True)
    try:
        for i, real in enumerate(replaced):
            shared = isinstance(real, int)  # the descriptor stays open
            path, mode = (targets[i], "w") if real is None else (real, "w") if shared else (real + suffix, "x")
            with open(path, mode, closefd=not shared, encoding="utf-8", newline="\n") as out:
                write(i, out)
        for real in replaced:
            if isinstance(real, str):
                os.replace(real + suffix, real)
    except BaseException:
        for real in replaced:
            if isinstance(real, str):
                with suppress(OSError):
                    os.remove(real + suffix)
        if made:
            with suppress(OSError):
                new_dir.rmdir()
        raise


# ---------------------------------------------------------------------------
# Commands


@_reporting
def cmd_vdm2uml(inputs: list[str], output: str | None, config: Config) -> RunReport:
    model, read = _load_vdm(inputs, EXIT_TRANSLATION)
    uml = vdm_to_uml(model, config)
    del model  # the diagram holds all it prints; bodies and expressions go now
    out_path = output or str(_default_puml_output(inputs))  # as given: 'out/' names no file
    try:
        _write_all([out_path], lambda _, out: print_puml(uml, config, file=out))
    except OSError as e:
        raise _Failure([f"error: cannot write '{out_path}': {e.strerror or e}"], EXIT_IO, read) from None
    abstracted = sum(1 for _, _, kind in lossy_members(uml) if kind == "attribute")
    summary = (
        f"wrote {out_path}: {len(uml.classes)} classes, "
        f"{len(uml.associations)} associations, {abstracted} abstracted attributes",
    )
    return RunReport(read, (out_path,), (), summary, EXIT_OK)


@_reporting
def cmd_uml2vdm(input_path: str, output_dir: str | None) -> RunReport:
    model, read = _load_puml(input_path)  # all that check runs on a diagram
    out_dir = Path(output_dir) if output_dir else Path(input_path).parent
    rendered = print_vdm(model)
    del model  # the texts hold all that is written
    written = [str(out_dir / f"{name}.vdmpp") for name, _ in rendered]
    try:
        _write_all(written, lambda i, out: out.write(rendered[i][1]), out_dir)
    except OSError as e:
        raise _Failure([f"error: cannot write to '{out_dir}': {e.strerror or e}"], EXIT_IO, read) from None
    return RunReport(read, tuple(written), (), (f"wrote {len(written)} files to {out_dir}",), EXIT_OK)


@_reporting
def cmd_roundtrip(inputs: list[str], config: Config) -> RunReport:
    model, read = _load_vdm(inputs, EXIT_IO)
    uml = vdm_to_uml(model, config)
    lossy_classes: dict[str, list[str]] = {}  # class -> its lossy member names
    for c, m, _ in lossy_members(uml):
        lossy_classes.setdefault(c, []).append(m)
    # A lossy class fails without being compared, so it travels back empty
    # and is put in canonical form empty.
    uml = replace(uml, classes=tuple(UmlClass(c.name) if c.name in lossy_classes else c
                                     for c in uml.classes))
    try:
        back = uml_to_vdm(uml)
    except TranslationError as e:
        raise _Failure(e.problems, EXIT_TRANSLATION, read) from None
    del uml  # keeps the diagram out of the peak memory of canonicalize_model
    canonical = canonicalize_model(replace(model, classes=tuple(
        VdmClass(c.name) if c.name in lossy_classes else c for c in model.classes)))

    summary: list[str] = []
    failures = 0
    back_by_name = {c.name: c for c in back.classes}
    for cls in canonical.classes:
        if cls.name in lossy_classes:
            failures += 1
            members = sorted(lossy_classes[cls.name])
            summary.append(
                f"FAIL {cls.name}: abstraction loses type information for "
                + ", ".join(f"'{m}'" for m in members)
            )
            continue
        returned = back_by_name.get(cls.name)
        if returned == cls:
            summary.append(f"PASS {cls.name}")
        else:
            failures += 1
            summary.append(f"FAIL {cls.name}: structure differs after the round trip")
            summary.extend(_class_diff(cls, returned))
    summary.append(f"{len(canonical.classes) - failures}/{len(canonical.classes)} classes round-trip")
    if failures == 0:
        return RunReport(read, (), (), tuple(summary), EXIT_OK)
    diagnostics = (f"error: {failures} of {len(canonical.classes)} classes failed the round trip",)
    return RunReport(read, (), diagnostics, tuple(summary), EXIT_TRANSLATION)


def _class_diff(expected, actual) -> list[str]:
    import difflib  # only a failing round trip needs it

    want = print_vdm(VdmModel((expected,)))[0][1].splitlines()
    have = [] if actual is None else print_vdm(VdmModel((actual,)))[0][1].splitlines()
    diff = difflib.unified_diff(want, have, "expected", "round-tripped", lineterm="", n=1)
    return [f"  {line}" for line in diff]


@_reporting
def cmd_check(input_path: str) -> RunReport:
    if Path(input_path).suffix == ".puml":
        model, read = _load_puml(input_path)
    else:
        model, read = _load_vdm([input_path], EXIT_TRANSLATION)
    return RunReport(read, (), (), (f"ok: {len(model.classes)} classes",), EXIT_OK)


# ---------------------------------------------------------------------------
# Argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _capacity(flag: str):
    """The argparse type of a capacity flag: a non-negative integer, or a UsageError."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = -1
        if value < 0:
            raise UsageError(f"{flag} must be a non-negative integer, got {raw!r}")
        return value

    return parse


def _add_gamma_flags(parser, environment):
    # A string default goes through type only when its flag is absent:
    # a flag beats its variable, which beats Config's default.
    defaults = Config()
    for flag, variable, default, text in (
        ("--gamma0", GAMMA0_ENV, defaults.gamma0, "capacity for set/seq/optional types (maps get 2N)"),
        ("--gamma1", GAMMA1_ENV, defaults.gamma1, "capacity for product/union types"),
    ):
        parser.add_argument(flag, metavar="N", type=_capacity(flag),
                            default=environment.get(variable, str(default)), help=text)


def build_parser(environment=os.environ) -> argparse.ArgumentParser:
    """The command line; each subcommand's run(args) makes its call and
    returns its RunReport. environment supplies the gamma variables."""
    parser = _ArgumentParser(
        prog="vdmuml",
        description="Translate between VDM++ class files and PlantUML class diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v2u = sub.add_parser("vdm2uml", help="translate .vdmpp files or folders to one .puml file")
    v2u.add_argument("inputs", nargs="+", help=".vdmpp files or directories")
    v2u.add_argument("-o", "--output", help="output .puml path")
    _add_gamma_flags(v2u, environment)
    v2u.add_argument("--ordering", choices=[o.value for o in Ordering], default=Config().ordering.value,
                     help="class output order")
    v2u.set_defaults(run=lambda a: cmd_vdm2uml(a.inputs, a.output,
                                               Config(a.gamma0, a.gamma1, Ordering(a.ordering))))

    u2v = sub.add_parser("uml2vdm", help="translate a .puml file to one .vdmpp per class")
    u2v.add_argument("input", help=".puml file")
    u2v.add_argument("-o", "--output-dir", help="directory for the generated .vdmpp files")
    u2v.set_defaults(run=lambda a: cmd_uml2vdm(a.input, a.output_dir))

    rt = sub.add_parser("roundtrip", help="translate there and back in memory and compare")
    rt.add_argument("inputs", nargs="+", help=".vdmpp files or directories")
    _add_gamma_flags(rt, environment)
    rt.set_defaults(run=lambda a: cmd_roundtrip(a.inputs, Config(a.gamma0, a.gamma1)))

    chk = sub.add_parser("check", help="parse and validate a .vdmpp/.puml file or folder")
    chk.add_argument("input", help=".vdmpp file, .puml file or directory")
    chk.set_defaults(run=lambda a: cmd_check(a.input))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser(os.environ).parse_args(argv)
    except UsageError as e:
        print(f"vdmuml: error: {e}", file=sys.stderr)
        return EXIT_USAGE

    report = args.run(args)
    with suppress(OSError):  # unwritable standard error: nothing to tell, the code stands
        for line in report.diagnostics:
            print(line, file=sys.stderr)
    try:
        for line in report.summary:
            print(line)
        if sys.stdout is not None:  # None when the descriptor was closed at start
            sys.stdout.flush()
    except OSError as e:  # a full device or a pipe nobody reads; io drops the failed text
        with suppress(OSError):
            print(f"error: cannot write standard output: {e.strerror or e}", file=sys.stderr)
        return EXIT_IO
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
