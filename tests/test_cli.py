"""CLI behaviour: exit codes, file handling, configuration precedence."""

import argparse
import errno
import gc
import os
import re
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from golden_pairs import GOLDEN_PAIRS
from vdmuml import cli
from vdmuml.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_TRANSLATION,
    EXIT_USAGE,
    UsageError,
    build_parser,
    cmd_check,
    cmd_roundtrip,
    cmd_uml2vdm,
    cmd_vdm2uml,
    main,
)
from vdmuml.errors import Diagnostic, TranslationError
from vdmuml.model import MAX_TYPE_DEPTH, Config, Ordering, VdmClass


def _args(argv):
    return build_parser().parse_args(argv)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


RULE_MODEL = "class A\ninstance variables\nassoc1 : B;\nend A\n"
CLASS_B = "class B\nend B\n"


# ---------------------------------------------------------------------------
# build_parser: flags, environment and defaults


def _config(monkeypatch, argv, environment):
    """The Config that `vdm2uml x *argv` hands to cmd_vdm2uml."""
    seen = []
    monkeypatch.setattr(cli, "cmd_vdm2uml", lambda inputs, output, config: seen.append(config))
    args = build_parser(environment).parse_args(["vdm2uml", "x", *argv])
    args.run(args)
    return seen[0]


def test_config_defaults(monkeypatch):
    assert _config(monkeypatch, [], {}) == Config(gamma0=2, gamma1=1, ordering=Ordering.INPUT)


def test_config_flag_beats_environment(monkeypatch):
    assert _config(monkeypatch, ["--gamma0", "5"], {"VDMUML_GAMMA0": "3"}).gamma0 == 5
    # a bad variable is not read when its flag is given
    assert _config(monkeypatch, ["--gamma0", "5"], {"VDMUML_GAMMA0": "many"}).gamma0 == 5


def test_config_environment_beats_default(monkeypatch):
    cfg = _config(monkeypatch, [], {"VDMUML_GAMMA0": "7", "VDMUML_GAMMA1": "9"})
    assert (cfg.gamma0, cfg.gamma1) == (7, 9)


def test_config_rejects_negative_and_junk():
    with pytest.raises(UsageError, match="^--gamma1 must be a non-negative integer, got '-1'$"):
        build_parser({}).parse_args(["vdm2uml", "x", "--gamma1", "-1"])
    with pytest.raises(UsageError, match="^--gamma0 must be a non-negative integer, got 'many'$"):
        build_parser({"VDMUML_GAMMA0": "many"}).parse_args(["vdm2uml", "x"])


@pytest.mark.parametrize("command", ["check", "uml2vdm", "vdm2uml", "roundtrip"])
def test_gamma_variables_are_read_only_by_the_commands_that_take_gamma(tmp_path, capsys, monkeypatch, command):
    src = _write(tmp_path / "A.vdmpp", "class A\nend A\n")
    if command == "uml2vdm":
        src = _write(tmp_path / "A.puml", "@startuml\nclass A\n@enduml\n")
    monkeypatch.setenv("VDMUML_GAMMA0", "abc")
    refused = ("", "vdmuml: error: --gamma0 must be a non-negative integer, got 'abc'\n")
    code, streams = {"check": (EXIT_OK, ("ok: 1 classes\n", "")),
                     "uml2vdm": (EXIT_OK, (f"wrote 1 files to {tmp_path}\n", "")),
                     "vdm2uml": (EXIT_USAGE, refused),
                     "roundtrip": (EXIT_USAGE, refused)}[command]
    assert main([command, str(src)]) == code
    assert capsys.readouterr() == streams


def test_usage_errors_exit_64(tmp_path, capsys):
    assert main(["vdm2uml"]) == EXIT_USAGE
    assert main(["unknown-command"]) == EXIT_USAGE
    src = _write(tmp_path / "A.vdmpp", "class A\nend A\n")
    assert main(["vdm2uml", str(src), "--gamma1", "-1"]) == EXIT_USAGE
    assert "non-negative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# vdm2uml


def test_vdm2uml_workspace(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    _write(ws / "A.vdmpp", "class A\nend A\n")
    _write(ws / "B.vdmpp", "class B is subclass of A\nend B\n")
    report = cmd_vdm2uml([str(ws)], None, Config())
    assert report.exit_code == EXIT_OK
    out = ws / "ws.puml"
    assert report.files_written == (str(out),)
    text = out.read_text()
    assert "A <|-- B" in text
    assert text.count("class ") == 2
    assert "2 classes, 0 associations, 0 abstracted attributes" in report.summary[0]


def test_vdm2uml_single_file_default_output(tmp_path):
    src = _write(tmp_path / "A.vdmpp", "class A\nend A\n")
    report = cmd_vdm2uml([str(src)], None, Config())
    assert report.exit_code == EXIT_OK
    assert (tmp_path / "A.puml").exists()


def test_vdm2uml_empty_directory(tmp_path):
    report = cmd_vdm2uml([str(tmp_path)], None, Config())
    assert report.exit_code == EXIT_TRANSLATION
    assert "no .vdmpp files found" in report.diagnostics[0]


def test_vdm2uml_missing_path(tmp_path):
    report = cmd_vdm2uml([str(tmp_path / "nope")], None, Config())
    assert report.exit_code == EXIT_IO


def test_vdm2uml_unwritable_output_exits_2(tmp_path, capsys):
    src = _write(tmp_path / "A.vdmpp", "class A\nend A\n")
    # a name that ends in a separator names no file, so none is made
    for target, reason in (("missing/x.puml", "No such file or directory"), ("out/", "Is a directory")):
        out = str(tmp_path) + os.sep + target
        report = cmd_vdm2uml([str(src)], out, Config())
        assert report.exit_code == EXIT_IO
        assert report.diagnostics == (f"error: cannot write '{out}': {reason}",)
        assert (report.files_read, report.files_written) == ((str(src),), ())
        assert main(["vdm2uml", str(src), "-o", out]) == EXIT_IO
        assert capsys.readouterr().err == report.diagnostics[0] + "\n"
        assert sorted(tmp_path.rglob("*")) == [src]


def _diagram_written_before(tmp_path):
    """(source, output) where output holds the diagram of an earlier run."""
    out = tmp_path / "m.puml"
    main(["vdm2uml", str(_write(tmp_path / "Old.vdmpp", "class Old\nend Old\n")), "-o", str(out)])
    (tmp_path / "Old.vdmpp").unlink()
    return _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B), out


def test_vdm2uml_failed_stream_leaves_the_existing_diagram(tmp_path, capsys, monkeypatch):
    src, out = _diagram_written_before(tmp_path)
    before = out.read_bytes()

    def failing(uml, config, *, file):
        file.writelines(print_puml(uml, config).splitlines(keepends=True)[:3])
        file.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    print_puml = cli.print_puml
    monkeypatch.setattr(cli, "print_puml", failing)
    capsys.readouterr()
    assert main(["vdm2uml", str(src), "-o", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write '{out}': {os.strerror(errno.ENOSPC)}\n"
    assert out.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [src, out]  # no temporary file


@pytest.mark.skipif(os.name != "posix", reason="RLIMIT_FSIZE is a POSIX resource limit")
def test_vdm2uml_past_the_file_size_limit_leaves_the_existing_diagram(tmp_path):
    src, out = _diagram_written_before(tmp_path)
    before = out.read_bytes()
    assert len(before) > 30
    # The limit is set after the import, so no compiled module is cut short.
    code = ("import resource, signal, sys\n"
            "from vdmuml.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (30, 30))\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code, "vdm2uml", str(src), "-o", str(out)],
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (EXIT_IO, "")
    assert run.stderr == f"error: cannot write '{out}': {os.strerror(errno.EFBIG)}\n"
    assert out.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [src, out]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_vdm2uml_writes_a_device_in_place(tmp_path, capsys):
    src = _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B)
    assert main(["vdm2uml", str(src), "-o", "/dev/null"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("wrote /dev/null: 2 classes")
    assert sorted(tmp_path.iterdir()) == [src]
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("name", ["/dev/fd/{fd}", "/proc/self/fd/{fd}", "{tmp}/stdout"])
def test_vdm2uml_writes_through_a_descriptor_link(tmp_path, name):
    """`-o /dev/stdout > file` must reach the file the shell holds open, not
    replace it. {tmp}/stdout stands for /dev/stdout, a link to
    /proc/self/fd/1, so that a failure here cannot replace the real one."""
    src = _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B)
    expected = tmp_path / "expected.puml"
    assert main(["vdm2uml", str(src), "-o", str(expected)]) == EXIT_OK
    with open(tmp_path / "redirected.puml", "w+b") as held:
        os.symlink(f"/proc/self/fd/{held.fileno()}", tmp_path / "stdout")
        target = name.format(fd=held.fileno(), tmp=tmp_path)
        assert main(["vdm2uml", str(src), "-o", target]) == EXIT_OK
        held.seek(0)  # the diagram went through the held descriptor, at its offset
        assert held.read() == expected.read_bytes()
    assert (tmp_path / "stdout").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A.vdmpp", "expected.puml", "redirected.puml", "stdout"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_vdm2uml_writes_through_a_descriptor_link_of_another_process(tmp_path, capsys):
    """/proc/PID/fd/1 of another process is opened by its name: the diagram
    reaches the file that process holds, which is not replaced."""
    src = _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B)
    expected = tmp_path / "expected.puml"
    assert main(["vdm2uml", str(src), "-o", str(expected)]) == EXIT_OK
    held = _write(tmp_path / "held.puml", "old\n")
    inode = held.stat().st_ino
    with open(held, "w", encoding="utf-8") as out:
        child = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                                 stdin=subprocess.PIPE, stdout=out, text=True)
    try:
        assert main(["vdm2uml", str(src), "-o", f"/proc/{child.pid}/fd/1"]) == EXIT_OK
    finally:
        child.communicate("")
    assert held.read_bytes() == expected.read_bytes()
    assert held.stat().st_ino == inode
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.skipif(not os.path.islink("/dev/stdout") or not os.path.isdir("/proc/self/fd"),
                    reason="needs /dev/stdout linked into /proc")
@pytest.mark.parametrize("redirect", [">", ">>"])
def test_vdm2uml_to_standard_output_redirected_into_a_file(tmp_path, capsys, redirect):
    """The diagram and then the summary reach the file the shell opened,
    each where the previous write ended: `>` starts it anew, `>>` appends."""
    src = _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B)
    expected = tmp_path / "expected.puml"
    assert main(["vdm2uml", str(src), "-o", str(expected)]) == EXIT_OK
    summary = capsys.readouterr().out.replace(str(expected), "/dev/stdout")
    redirected = _write(tmp_path / "redirected.puml", "kept\n")
    run = _run_child(["sh", "-c", f'out=$1; shift; exec "$@" {redirect} "$out"', "sh", str(redirected),
                      *_CLI, "vdm2uml", str(src), "-o", "/dev/stdout"], stderr=subprocess.PIPE)
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    kept = "kept\n" if redirect == ">>" else ""
    assert redirected.read_text(encoding="utf-8") == kept + expected.read_text(encoding="utf-8") + summary


def test_vdm2uml_replaces_the_file_a_symbolic_link_names(tmp_path):
    src = _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B)
    (tmp_path / "diagrams").mkdir()
    real = _write(tmp_path / "diagrams" / "m.puml", "old\n")
    link = tmp_path / "m.puml"
    link.symlink_to(Path("diagrams", "m.puml"))
    assert cmd_vdm2uml([str(src)], str(link), Config()).exit_code == EXIT_OK
    assert os.readlink(link) == str(Path("diagrams", "m.puml"))
    assert real.read_text(encoding="utf-8").startswith("@startuml\n")
    assert sorted(tmp_path.rglob("*")) == [src, real.parent, real, link]


def test_vdm2uml_into_an_unwritable_directory_leaves_the_diagram(tmp_path, capsys, monkeypatch):
    """The temporary file needs a writable directory, even where the
    target itself is writable. Permission bits do not bind a superuser,
    so there the refusal of the temporary's open is injected."""
    src, out = _diagram_written_before(tmp_path)
    before = out.read_bytes()
    if hasattr(os, "geteuid") and os.geteuid() == 0:
        def refusing_open(path, mode="r", *args, **kwargs):
            if mode == "x":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refusing_open, raising=False)
    capsys.readouterr()
    tmp_path.chmod(0o555)
    try:
        assert main(["vdm2uml", str(src), "-o", str(out)]) == EXIT_IO
    finally:
        tmp_path.chmod(0o755)
    assert capsys.readouterr().err == f"error: cannot write '{out}': {os.strerror(errno.EACCES)}\n"
    assert out.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [src, out]


def test_vdm2uml_syntax_error_reports_position_and_writes_nothing(tmp_path):
    src = _write(tmp_path / "bad.vdmpp", "class A\ninstance variables\nx : ;\nend A\n")
    out = tmp_path / "out.puml"
    report = cmd_vdm2uml([str(src)], str(out), Config())
    assert report.exit_code == EXIT_TRANSLATION
    assert any(f"{src}:3:" in d for d in report.diagnostics)
    assert not out.exists()


def test_vdm2uml_deeply_nested_type_is_refused_with_position(tmp_path, capsys):
    src = _write(tmp_path / "deep.vdmpp",
                 "class A\ninstance variables\nx : " + "set of " * 3000 + "nat;\nend A\n")
    out = tmp_path / "deep.puml"
    assert main(["vdm2uml", str(src), "-o", str(out)]) == EXIT_TRANSLATION
    column = 5 + 7 * (2 * MAX_TYPE_DEPTH + 1)  # the parser reads twice the model's bound
    assert capsys.readouterr().err == f"{src}:3:{column}: error: type nested too deeply\n"
    assert not out.exists()


def test_vdm2uml_non_ascii_text(tmp_path, capsys):
    body = _write(tmp_path / "ok.vdmpp", "class A\nfunctions\nf : () -> nat\nf() == return é + 1;\nend A\n")
    assert main(["vdm2uml", str(body), "-o", str(tmp_path / "ok.puml")]) == EXIT_OK
    bad = _write(tmp_path / "bad.vdmpp", "class A\nvalues\nv : é = 1;\nend A\n")
    out = tmp_path / "bad.puml"
    assert main(["vdm2uml", str(bad), "-o", str(out)]) == EXIT_TRANSLATION
    assert f"{bad}:3:5: error: expected a type" in capsys.readouterr().err
    assert not out.exists()


def test_vdm2uml_duplicate_classes_across_files(tmp_path):
    _write(tmp_path / "one.vdmpp", "class A\nend A\n")
    _write(tmp_path / "two.vdmpp", "class A\nend A\n")
    report = cmd_vdm2uml([str(tmp_path)], None, Config())
    assert report.exit_code == EXIT_TRANSLATION
    assert any("duplicate class name" in d for d in report.diagnostics)
    assert not list(tmp_path.glob("*.puml"))


def test_vdm2uml_counts_abstracted_attributes(tmp_path):
    src = _write(
        tmp_path / "A.vdmpp",
        "class A\ninstance variables\nx : B * C * D;\nend A\n"
        "class B end B\nclass C end C\nclass D end D\n",
    )
    report = cmd_vdm2uml([str(src)], None, Config(gamma1=1))
    assert report.exit_code == EXIT_OK
    assert "1 abstracted attributes" in report.summary[0]
    assert ": **" in (tmp_path / "A.puml").read_text()


def test_vdm2uml_cross_file_references(tmp_path):
    _write(tmp_path / "A.vdmpp", RULE_MODEL)
    _write(tmp_path / "B.vdmpp", CLASS_B)
    report = cmd_vdm2uml([str(tmp_path)], None, Config())
    assert report.exit_code == EXIT_OK
    assert "A --> B : assoc1" in (tmp_path / f"{tmp_path.name}.puml").read_text()


@pytest.mark.skipif(os.name != "posix", reason="symbolic links")
def test_linked_subdirectories_are_not_searched(tmp_path, capsys):
    # a linked file is read, a linked directory is not entered
    ws, other = tmp_path / "ws", tmp_path / "other"
    (ws / "real").mkdir(parents=True)
    other.mkdir()
    _write(ws / "real" / "A.vdmpp", "class A\nend A\n")
    _write(other / "B.vdmpp", "class B\nend B\n")
    _write(other / "C.vdmpp", "class C\nend C\n")
    (ws / "linked").symlink_to(other)
    (ws / "real" / "C.vdmpp").symlink_to(other / "C.vdmpp")
    assert main(["check", str(ws)]) == EXIT_OK
    assert capsys.readouterr().out == "ok: 2 classes\n"


# ---------------------------------------------------------------------------
# uml2vdm


def test_uml2vdm_writes_one_file_per_class(tmp_path):
    puml = _write(
        tmp_path / "m.puml",
        "@startuml\nclass A {\n}\nclass B {\n}\nA --> B : assoc1\n@enduml\n",
    )
    outdir = tmp_path / "out"
    report = cmd_uml2vdm(str(puml), str(outdir))
    assert report.exit_code == EXIT_OK
    assert sorted(p.name for p in outdir.iterdir()) == ["A.vdmpp", "B.vdmpp"]
    assert "assoc1 : B;" in (outdir / "A.vdmpp").read_text()


def test_uml2vdm_refuses_a_diagram_without_classes(tmp_path, capsys):
    # as a workspace without .vdmpp files is refused, so nothing is written
    puml = _write(tmp_path / "m.puml", "@startuml\n' no classes\n@enduml\n")
    outdir = tmp_path / "out"
    assert main(["uml2vdm", str(puml), "-o", str(outdir)]) == EXIT_TRANSLATION
    assert capsys.readouterr() == ("", "error: no classes found\n")
    assert sorted(tmp_path.rglob("*")) == [puml]


def test_uml2vdm_missing_role_fails(tmp_path):
    puml = _write(tmp_path / "m.puml", "class A\nclass B\nA --> B\n")
    report = cmd_uml2vdm(str(puml), None)
    assert report.exit_code == EXIT_TRANSLATION
    assert any("association requires a role name" in d for d in report.diagnostics)


def test_uml2vdm_elided_type_fails(tmp_path):
    puml = _write(tmp_path / "m.puml", "class A {\n- x : **\n}\n")
    outdir = tmp_path / "out"
    report = cmd_uml2vdm(str(puml), str(outdir))
    assert report.exit_code == EXIT_TRANSLATION
    assert any("not back-translatable" in d for d in report.diagnostics)
    assert not outdir.exists()


def test_uml2vdm_elided_qualifier_fails(tmp_path, capsys):
    puml = _write(tmp_path / "m.puml", "class A\nclass B\nA [set...] --> B : r\n")
    assert main(["uml2vdm", str(puml)]) == EXIT_TRANSLATION
    assert capsys.readouterr() == ("", "error: A.r: abstracted type 'set...' is not back-translatable\n")
    assert list(tmp_path.iterdir()) == [puml]  # nothing is written


def test_uml2vdm_deeply_nested_type_is_refused(tmp_path, capsys):
    deep = "(" * 3000 + "nat" + ")" * 3000
    puml = _write(tmp_path / "m.puml", f"class A {{\n- x : {deep}\n}}\n")
    outdir = tmp_path / "out"
    assert main(["uml2vdm", str(puml), "-o", str(outdir)]) == EXIT_TRANSLATION
    assert capsys.readouterr().err == f"error: A.x: invalid type {deep!r}: type nested too deeply\n"
    assert not outdir.exists()


# Diagrams whose member types are all `depth` types deep, each with the
# member it names, where printing adds grouping parentheses or a map: a
# map in a map domain or in a set, a map as a parameter, and a
# qualifier's type inside the map around it.
def _diagrams(depth):
    maps_in_domains = "map " * depth + "A" + " to A" * depth
    maps_in_sets = "set of map A to " * (depth // 2) + "set of " * (depth % 2) + "A"
    sets_in_map = "map " + "set of " * (depth - 1) + "nat to nat"
    sets = "set of " * (depth - 1) + "nat"
    return [
        (f"class A {{\n- x : {maps_in_domains}\n}}\n", "A.x"),
        (f"class A {{\n- x : {maps_in_sets}\n}}\n", "A.x"),
        (f"class A {{\n+ f(nat, {sets_in_map}) : {sets_in_map}\n}}\n", "A.f"),
        (f"class A\nclass B\nA [{sets}] --> B : r\n", "A.r"),
    ]


_DIAGRAM_IDS = ["maps-in-domains", "maps-in-sets", "parameter", "qualifier"]


@pytest.mark.parametrize("text,member", _diagrams(MAX_TYPE_DEPTH + 1), ids=_DIAGRAM_IDS)
def test_uml2vdm_refuses_type_that_prints_too_deep(tmp_path, capsys, text, member):
    puml = _write(tmp_path / "m.puml", text)
    outdir = tmp_path / "out"
    assert main(["uml2vdm", str(puml), "-o", str(outdir)]) == EXIT_TRANSLATION
    assert capsys.readouterr().err == f"error: {member}: type nested too deeply\n"
    assert not outdir.exists()


@pytest.mark.parametrize("text", [text for text, _ in _diagrams(MAX_TYPE_DEPTH)], ids=_DIAGRAM_IDS)
def test_uml2vdm_writes_types_at_the_depth_limit_that_check_accepts(tmp_path, capsys, text):
    puml = _write(tmp_path / "m.puml", text)
    outdir = tmp_path / "out"
    assert main(["uml2vdm", str(puml), "-o", str(outdir)]) == EXIT_OK
    assert main(["check", str(outdir)]) == EXIT_OK


def test_uml2vdm_rejects_own_elided_output(tmp_path):
    # produce the elided attribute through the forward direction, then
    # feed the diagram back
    src = _write(
        tmp_path / "A.vdmpp",
        "class A\ninstance variables\nx : B * C * D;\nend A\n"
        "class B end B\nclass C end C\nclass D end D\n",
    )
    out = tmp_path / "m.puml"
    assert cmd_vdm2uml([str(src)], str(out), Config(gamma1=1)).exit_code == EXIT_OK
    assert "- x : **" in out.read_text()
    report = cmd_uml2vdm(str(out), str(tmp_path / "back"))
    assert report.exit_code == EXIT_TRANSLATION
    assert any("A.x" in d and "not back-translatable" in d for d in report.diagnostics)


def test_uml2vdm_names_elided_marker_inside_brackets(tmp_path):
    # [N * N] draws as [*] at the default capacities; the way back must
    # call it abstracted, not an invalid type
    src = _write(tmp_path / "A.vdmpp", "class A\ninstance variables\nx : [N * N];\nend A\n")
    out = tmp_path / "m.puml"
    assert cmd_vdm2uml([str(src)], str(out), Config()).exit_code == EXIT_OK
    assert "- x : [*]" in out.read_text()
    report = cmd_uml2vdm(str(out), str(tmp_path / "back"))
    assert report.exit_code == EXIT_TRANSLATION
    assert report.diagnostics == ("error: A.x: abstracted type '[*]' is not back-translatable",)
    assert not (tmp_path / "back").exists()


def test_uml2vdm_refuses_keywords_as_names(tmp_path):
    # what uml2vdm writes must pass check, and 'values', 'end' and 'nat'
    # cannot name a class, a member or a role in VDM++
    puml = _write(
        tmp_path / "m.puml",
        "@startuml\nclass values {\n  - end : nat\n}\nclass B {\n}\nvalues --> B : nat\n@enduml\n",
    )
    before = sorted(tmp_path.rglob("*"))
    report = cmd_uml2vdm(str(puml), str(tmp_path / "out"))
    assert report.exit_code == EXIT_TRANSLATION
    assert report.diagnostics == (
        "error: values: class name 'values' is a reserved keyword",
        "error: values.end: attribute name 'end' is a reserved keyword",
        "error: values.nat: role name 'nat' is a reserved keyword",
    )
    assert sorted(tmp_path.rglob("*")) == before


def test_uml2vdm_refuses_class_names_equal_but_for_case(tmp_path, capsys):
    # A.vdmpp and a.vdmpp would overwrite each other on a case-insensitive file system
    puml = _write(tmp_path / "m.puml", "class A\nclass B\nclass a\n")
    outdir = tmp_path / "out"
    assert main(["uml2vdm", str(puml), "-o", str(outdir)]) == EXIT_TRANSLATION
    assert capsys.readouterr().err == (
        "error: A: file name 'A.vdmpp' differs only in case from 'a.vdmpp'\n"
        "error: a: file name 'a.vdmpp' differs only in case from 'A.vdmpp'\n"
    )
    assert not outdir.exists()


def test_uml2vdm_missing_input(tmp_path):
    assert cmd_uml2vdm(str(tmp_path / "no.puml"), None).exit_code == EXIT_IO


def test_uml2vdm_output_dir_that_is_a_file_exits_2(tmp_path, capsys):
    puml = _write(tmp_path / "m.puml", "@startuml\nclass A\n@enduml\n")
    blocker = _write(tmp_path / "out", "kept\n")
    report = cmd_uml2vdm(str(puml), str(blocker))
    assert report.exit_code == EXIT_IO
    assert report.diagnostics == (f"error: cannot write to '{blocker}': File exists",)
    assert (report.files_read, report.files_written) == ((str(puml),), ())
    assert main(["uml2vdm", str(puml), "-o", str(blocker)]) == EXIT_IO
    assert capsys.readouterr().err == report.diagnostics[0] + "\n"
    assert sorted(tmp_path.rglob("*")) == [puml, blocker]
    assert blocker.read_text() == "kept\n"


FIVE_CLASSES = "@startuml\n" + "".join(f"class C{i}\n" for i in range(1, 6)) + "@enduml\n"


def _fail_third_write(monkeypatch):
    """Make the third file that cli opens raise as a full disk would."""
    calls = []

    def failing_open(path, *args, **kwargs):
        calls.append(path)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)


def test_uml2vdm_failed_write_leaves_no_new_directory(tmp_path, capsys, monkeypatch):
    puml = _write(tmp_path / "m.puml", FIVE_CLASSES)
    outdir = tmp_path / "out"
    _fail_third_write(monkeypatch)
    assert main(["uml2vdm", str(puml), "-o", str(outdir)]) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write to '{outdir}': {os.strerror(errno.ENOSPC)}\n"
    assert sorted(tmp_path.rglob("*")) == [puml]  # neither the target nor a temporary directory


def test_uml2vdm_failed_write_leaves_an_existing_directory_as_it_was(tmp_path, capsys, monkeypatch):
    puml = _write(tmp_path / "m.puml", FIVE_CLASSES)
    outdir = tmp_path / "out"
    outdir.mkdir()
    before = {"C1.vdmpp": "old C1\n", "C4.vdmpp": "old C4\n", "notes.txt": "kept\n"}
    for name, text in before.items():
        _write(outdir / name, text)
    _fail_third_write(monkeypatch)
    assert main(["uml2vdm", str(puml), "-o", str(outdir)]) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write to '{outdir}': {os.strerror(errno.ENOSPC)}\n"
    assert {p.name: p.read_text() for p in outdir.iterdir()} == before


def test_uml2vdm_writes_into_a_linked_directory(tmp_path):
    puml = _write(tmp_path / "m.puml", FIVE_CLASSES)
    (tmp_path / "real").mkdir()
    link = tmp_path / "out"
    link.symlink_to("real", target_is_directory=True)
    assert cmd_uml2vdm(str(puml), str(link)).exit_code == EXIT_OK
    assert link.is_symlink()
    assert sorted(p.name for p in (tmp_path / "real").iterdir()) == [f"C{i}.vdmpp" for i in range(1, 6)]


def test_uml2vdm_replaces_files_of_an_existing_directory(tmp_path):
    puml = _write(tmp_path / "m.puml", FIVE_CLASSES)
    outdir = tmp_path / "out"
    outdir.mkdir()
    _write(outdir / "C1.vdmpp", "old C1\n")
    _write(outdir / "notes.txt", "kept\n")
    report = cmd_uml2vdm(str(puml), str(outdir))
    assert report.exit_code == EXIT_OK
    names = [f"C{i}.vdmpp" for i in range(1, 6)]
    assert report.files_written == tuple(str(outdir / name) for name in names)
    assert sorted(p.name for p in outdir.iterdir()) == sorted(names + ["notes.txt"])
    assert (outdir / "C1.vdmpp").read_text() == "class C1\nend C1\n"
    assert (outdir / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("existing", [False, True], ids=["new-directory", "existing-directory"])
def test_uml2vdm_writes_with_the_modes_of_plain_mkdir_and_open(tmp_path, existing):
    puml = _write(tmp_path / "m.puml", FIVE_CLASSES)
    (tmp_path / "plain").mkdir()
    plain_file = _write(tmp_path / "plain" / "f", "")
    outdir = tmp_path / "out"
    if existing:
        outdir.mkdir()
    assert cmd_uml2vdm(str(puml), str(outdir)).exit_code == EXIT_OK
    mode = lambda p: stat.S_IMODE(p.stat().st_mode)
    assert mode(outdir) == mode(tmp_path / "plain")
    assert {mode(p) for p in outdir.iterdir()} == {mode(plain_file)}


def test_uml2vdm_output_parses_back(tmp_path):
    puml = _write(
        tmp_path / "m.puml",
        "@startuml\nclass A {\n  - v : real <<value>>\n  + op(nat) : bool\n}\n@enduml\n",
    )
    report = cmd_uml2vdm(str(puml), str(tmp_path / "out"))
    assert report.exit_code == EXIT_OK
    text = (tmp_path / "out" / "A.vdmpp").read_text()
    assert "private v : real = undefined;" in text
    assert "op(p1) == is not yet specified;" in text


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_passes_on_lossless_model(tmp_path):
    _write(tmp_path / "A.vdmpp", RULE_MODEL)
    _write(tmp_path / "B.vdmpp", CLASS_B)
    report = cmd_roundtrip([str(tmp_path)], Config())
    assert report.exit_code == EXIT_OK
    assert "PASS A" in report.summary and "PASS B" in report.summary
    assert "2/2 classes round-trip" in report.summary[-1]


def test_roundtrip_fails_on_abstracted_member(tmp_path):
    _write(
        tmp_path / "A.vdmpp",
        "class A\ninstance variables\nx : B * C * D;\nend A\n"
        "class B end B\nclass C end C\nclass D end D\n",
    )
    report = cmd_roundtrip([str(tmp_path)], Config(gamma1=1))
    assert report.exit_code == EXIT_TRANSLATION
    fail_lines = [s for s in report.summary if s.startswith("FAIL A")]
    assert fail_lines and "'x'" in fail_lines[0]


def test_roundtrip_lossy_class_leaves_its_neighbours_passing(tmp_path):
    # K holds an association to the lossy L and S inherits from it; only L
    # fails, and its report names every lossy member
    _write(
        tmp_path / "m.vdmpp",
        "class L\ninstance variables\nx : K * K * K;\nk : K;\n"
        "operations\nop : K * K * K ==> nat\nop(a) == 0;\nend L\n"
        "class K\ninstance variables\nl : L;\nend K\n"
        "class S is subclass of L\nend S\n",
    )
    report = cmd_roundtrip([str(tmp_path)], Config(gamma1=1))
    assert report.exit_code == EXIT_TRANSLATION
    assert report.summary == (
        "FAIL L: abstraction loses type information for 'op', 'x'",
        "PASS K",
        "PASS S",
        "2/3 classes round-trip",
    )


def test_verbatim_markers_are_not_lossy(tmp_path, capsys):
    # at --gamma0 0 'set of T' and '[T]' exceed their capacity but draw
    # verbatim, so they are neither counted as abstracted nor failed
    src = _write(
        tmp_path / "A.vdmpp",
        "class A\ntypes\nT = nat;\ninstance variables\ns : set of T;\no : [T];\nend A\n",
    )
    out = tmp_path / "m.puml"
    assert main(["vdm2uml", str(src), "-o", str(out), "--gamma0", "0"]) == EXIT_OK
    assert "0 abstracted attributes" in capsys.readouterr().out
    assert "- s : set of T" in out.read_text() and "- o : [T]" in out.read_text()
    assert main(["roundtrip", str(src), "--gamma0", "0"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["PASS A", "1/1 classes round-trip"]


@pytest.mark.parametrize("fault,failed", [
    (lambda c: replace(c, instance_variables=tuple(v for v in c.instance_variables if v.name != "n")),
     ("FAIL A: structure differs after the round trip",
      "  --- expected", "  +++ round-tripped", "  @@ -2,3 +2,2 @@",
      "   instance variables", "  -private n : nat;", "   private b : B;", "PASS B")),
    (lambda c: None,
     ("FAIL A: structure differs after the round trip",
      "  --- expected", "  +++ round-tripped", "  @@ -1,5 +0,0 @@",
      "  -class A", "  -instance variables", "  -private n : nat;", "  -private b : B;", "  -end A",
      "PASS B")),
], ids=["member-dropped", "class-dropped"])
def test_roundtrip_shows_how_a_class_came_back_changed(tmp_path, capsys, monkeypatch, fault, failed):
    # only a fault in the translation reaches this report, so one is injected into A
    def faulty(uml):
        back = uml_to_vdm(uml)
        changed = (fault(c) if c.name == "A" else c for c in back.classes)
        return replace(back, classes=tuple(c for c in changed if c is not None))

    uml_to_vdm = cli.uml_to_vdm
    monkeypatch.setattr(cli, "uml_to_vdm", faulty)
    src = _write(tmp_path / "A.vdmpp", "class A\ninstance variables\nb : B;\nn : nat;\nend A\n" + CLASS_B)
    assert main(["roundtrip", str(src)]) == EXIT_TRANSLATION
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [*failed, "1/2 classes round-trip"]
    assert captured.err == "error: 1 of 2 classes failed the round trip\n"


def test_roundtrip_reports_a_failed_translation_back(tmp_path, capsys, monkeypatch):
    # the diagram of a valid model translates back; a fault is injected to reach this report
    def failing(uml):
        raise TranslationError([Diagnostic("A.x", "boom"), Diagnostic("B", "bang")])

    monkeypatch.setattr(cli, "uml_to_vdm", failing)
    src = _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B)
    assert main(["roundtrip", str(src)]) == EXIT_TRANSLATION
    assert capsys.readouterr() == ("", "error: A.x: boom\nerror: B: bang\n")


def test_roundtrip_parse_failure_exits_2(tmp_path):
    _write(tmp_path / "A.vdmpp", "class A\nboom\nend A\n")
    assert cmd_roundtrip([str(tmp_path)], Config()).exit_code == EXIT_IO


def test_roundtrip_unreadable_path_exits_2(tmp_path):
    assert cmd_roundtrip([str(tmp_path / "ghost")], Config()).exit_code == EXIT_IO


# ---------------------------------------------------------------------------
# check


def test_check_vdm_ok(tmp_path):
    src = _write(tmp_path / "A.vdmpp", "class A\nend A\n")
    report = cmd_check(str(src))
    assert report.exit_code == EXIT_OK
    assert report.summary == ("ok: 1 classes",)


def test_check_tolerates_byte_order_mark(tmp_path):
    src = tmp_path / "A.vdmpp"
    src.write_bytes(b"\xef\xbb\xbfclass A\nend A\n")
    assert cmd_check(str(src)).exit_code == EXIT_OK


def test_check_puml_with_diagnostics(tmp_path):
    puml = _write(tmp_path / "m.puml", "class A\nA --> Z : r\n")
    report = cmd_check(str(puml))
    assert report.exit_code == EXIT_TRANSLATION
    assert any("unknown class 'Z'" in d for d in report.diagnostics)


def test_check_refuses_parsed_type_past_the_depth_bound(tmp_path, capsys):
    # within the text levels the parser reads, but more types deep than a
    # model holds: refused by validation, so without a position
    src = _write(tmp_path / "A.vdmpp",
                 "class A\ninstance variables\nx : " + "set of " * (MAX_TYPE_DEPTH + 1) + "nat;\nend A\n")
    assert main(["check", str(src)]) == EXIT_TRANSLATION
    assert capsys.readouterr().err == "error: A.x: type nested too deeply\n"


def test_check_reports_parse_errors_with_positions(tmp_path):
    src = _write(tmp_path / "A.vdmpp", "class A\ninstance variables\n: nat;\nend A\n")
    report = cmd_check(str(src))
    assert report.exit_code == EXIT_TRANSLATION
    assert any(f"{src}:3:" in d and ": error: " in d for d in report.diagnostics)


# Diagrams that check once accepted, and uml2vdm refused or (the comments)
# translated without them, with what both say.
_UNTRANSLATABLE = [
    ("class A {\n- x : set of\n}\n", "error: A.x: invalid type 'set of': expected a type\n"),
    ("class A {\n- y : nat nat\n}\n", "error: A.y: invalid type 'nat nat': unexpected text after type\n"),
    ("class A {\n+ f(seq of) : bool\n}\n", "error: A.f: invalid type 'seq of': expected a type\n"),
    ("class A {\n- x : " + "set of " * 200 + "nat\n}\n",
     "error: A.x: invalid type '" + "set of " * 200 + "nat': type nested too deeply\n"),
    ("class Foo\nclass foo\n", "error: Foo: file name 'Foo.vdmpp' differs only in case from 'foo.vdmpp'\n"
                               "error: foo: file name 'foo.vdmpp' differs only in case from 'Foo.vdmpp'\n"),
    ("@startuml\n@enduml\n", "error: no classes found\n"),
    ("class A {\n- x : set of seq...\n}\n",
     "error: A.x: abstracted type 'set of seq...' is not back-translatable\n"),
    ("class A {\n- x : nat -- what\n}\n",
     "error: A.x: invalid type 'nat -- what': comments are not allowed in diagram type text\n"),
    ("class A {\n- y : set of /* gone */ bool\n}\n",
     "error: A.y: invalid type 'set of /* gone */ bool': comments are not allowed in diagram type text\n"),
    ("class A {\n+ f(nat -- z) : nat\n}\n",
     "error: A.f: invalid type 'nat -- z': comments are not allowed in diagram type text\n"),
]
_UNTRANSLATABLE_IDS = ["set-of-nothing", "two-types", "parameter", "200-deep", "case", "no-classes", "elided",
                       "line-comment", "block-comment", "parameter-comment"]


@pytest.mark.parametrize("text,err", _UNTRANSLATABLE, ids=_UNTRANSLATABLE_IDS)
def test_check_refuses_a_diagram_that_does_not_translate(tmp_path, capsys, text, err):
    puml = _write(tmp_path / "d.puml", text)
    assert main(["check", str(puml)]) == EXIT_TRANSLATION
    assert capsys.readouterr() == ("", err)


_CORPUS = sorted((Path(__file__).parent / "fixtures" / "puml_corpus").glob("*/*.puml"))


@pytest.mark.parametrize("text", [
    *(path.read_bytes() for path in _CORPUS),
    *(puml.encode() for _, _, puml in GOLDEN_PAIRS),
    *(text.encode() for text, _ in _UNTRANSLATABLE),
], ids=[*(f"{p.parent.name}-{p.stem}" for p in _CORPUS), *(f"golden-{name}" for name, _, _ in GOLDEN_PAIRS),
        *_UNTRANSLATABLE_IDS])
def test_check_runs_all_that_uml2vdm_runs_before_it_writes(tmp_path, capsys, text):
    puml = tmp_path / "d.puml"
    puml.write_bytes(text)
    code = main(["check", str(puml)])
    checked = capsys.readouterr()
    assert sorted(tmp_path.rglob("*")) == [puml]  # check writes nothing
    out = tmp_path / "out"
    assert (main(["uml2vdm", str(puml), "-o", str(out)]), capsys.readouterr().err) == (code, checked.err)
    written = len(list(out.iterdir())) if out.exists() else 0
    assert checked.out == (f"ok: {written} classes\n" if code == EXIT_OK else "")


# ---------------------------------------------------------------------------
# main wiring


def test_main_end_to_end(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    _write(ws / "A.vdmpp", RULE_MODEL)
    _write(ws / "B.vdmpp", CLASS_B)
    out = tmp_path / "model.puml"
    assert main(["vdm2uml", str(ws), "-o", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "2 classes" in stdout

    assert main(["uml2vdm", str(out), "-o", str(tmp_path / "back")]) == EXIT_OK
    assert main(["roundtrip", str(ws)]) == EXIT_OK
    assert main(["check", str(ws / "A.vdmpp")]) == EXIT_OK

    # a qualifier key that starts with '(' and a class named as a PlantUML
    # directive read back as drawn
    _write(ws / "hide.vdmpp", "class hide\ninstance variables\nb : B;\n"
                              "m : map ((map nat to bool) * int) to B;\nend hide\n")
    _write(ws / "C.vdmpp", "class C is subclass of hide\nend C\n")
    assert main(["vdm2uml", str(ws), "-o", str(out)]) == EXIT_OK
    assert main(["check", str(out)]) == EXIT_OK
    assert main(["uml2vdm", str(out), "-o", str(tmp_path / "named")]) == EXIT_OK
    assert "is subclass of hide" in (tmp_path / "named" / "C.vdmpp").read_text()
    members = (tmp_path / "named" / "hide.vdmpp").read_text()
    assert "b : B;" in members and "m : map (map nat to bool) * int to B;" in members

    bad = _write(tmp_path / "bad.vdmpp", "class A\nend B\n")
    assert main(["check", str(bad)]) == EXIT_TRANSLATION
    err = capsys.readouterr().err
    assert "bad.vdmpp" in err


def test_main_gamma_flags_change_output(tmp_path):
    src = _write(
        tmp_path / "A.vdmpp",
        "class A\ninstance variables\nx : nat * bool * char * B;\nend A\nclass B end B\n",
    )
    out1 = tmp_path / "wide.puml"
    out2 = tmp_path / "narrow.puml"
    assert main(["vdm2uml", str(src), "-o", str(out1), "--gamma1", "5"]) == EXIT_OK
    assert main(["vdm2uml", str(src), "-o", str(out2), "--gamma1", "0"]) == EXIT_OK
    assert "x : nat * bool * char * B" in out1.read_text()
    assert "x : ***" in out2.read_text()


def test_main_ordering_flag(tmp_path):
    src = _write(tmp_path / "m.vdmpp", "class Zeta\nend Zeta\nclass Alpha\nend Alpha\n")
    out = tmp_path / "m.puml"
    assert main(["vdm2uml", str(src), "-o", str(out), "--ordering", "alpha"]) == EXIT_OK
    text = out.read_text()
    assert text.index("class Alpha") < text.index("class Zeta")


def test_roundtrip_takes_no_ordering_flag(tmp_path, capsys):
    # roundtrip prints no diagram, so a class order would have no effect
    src = _write(tmp_path / "m.vdmpp", "class A\nend A\n")
    assert main(["roundtrip", str(src), "--ordering", "alpha"]) == EXIT_USAGE
    assert "--ordering" in capsys.readouterr().err


def test_environment_gamma_applies(tmp_path, monkeypatch):
    src = _write(
        tmp_path / "A.vdmpp",
        "class A\ninstance variables\nx : nat * bool * B;\nend A\nclass B end B\n",
    )
    out = tmp_path / "o.puml"
    monkeypatch.setenv("VDMUML_GAMMA1", "0")
    assert main(["vdm2uml", str(src), "-o", str(out)]) == EXIT_OK
    assert "x : **" in out.read_text()


_CLI = [sys.executable, "-m", "vdmuml.cli"]


def _run_child(argv, **streams):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(argv, text=True, env=env, **streams)


@pytest.mark.skipif(os.name != "posix", reason="POSIX devices and pipes")
@pytest.mark.parametrize("command", ["check", "vdm2uml"])
@pytest.mark.parametrize("stdout", ["/dev/full", "pipe-without-reader"])
def test_unwritable_standard_output_exits_2(tmp_path, command, stdout):
    src = _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B)
    if stdout == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            run = _run_child([*_CLI, command, str(src)], stdout=full, stderr=subprocess.PIPE)
        reason = os.strerror(errno.ENOSPC)
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            run = _run_child([*_CLI, command, str(src)], stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        reason = os.strerror(errno.EPIPE)
    assert run.returncode == EXIT_IO
    assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr
    assert run.stderr == f"error: cannot write standard output: {reason}\n"
    # the diagram was in place before the summary was printed
    written = ["A.puml"] if command == "vdm2uml" else []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["A.vdmpp", *written])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_standard_output_and_error_exits_2(tmp_path):
    src = _write(tmp_path / "A.vdmpp", CLASS_B)
    with open("/dev/full", "w") as full:
        assert _run_child([*_CLI, "check", str(src)], stdout=full, stderr=full).returncode == EXIT_IO


@pytest.mark.skipif(os.name != "posix", reason="POSIX devices")
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command,code", [("roundtrip", EXIT_IO), ("check", EXIT_TRANSLATION)])
def test_unwritable_standard_error_keeps_the_exit_code(tmp_path, command, code):
    # the parse error cannot be told, but the exit code still says what went wrong
    src = _write(tmp_path / "A.vdmpp", "class A\ninstance variables\nx : ;\nend A\n")
    with open("/dev/full", "w") as full:
        run = _run_child([*_CLI, command, str(src)], stdout=subprocess.PIPE, stderr=full)
    assert (run.returncode, run.stdout) == (code, "")


@pytest.mark.skipif(os.name != "posix", reason="a POSIX shell closes the descriptor")
def test_closed_standard_output_is_not_a_failure(tmp_path):
    # with descriptor 1 closed at start there is no stdout, and print skips it
    src = _write(tmp_path / "A.vdmpp", CLASS_B)
    run = _run_child(["sh", "-c", 'exec "$@" >&-', "sh", *_CLI, "check", str(src)], capture_output=True)
    assert (run.returncode, run.stderr) == (EXIT_OK, "")


# ---------------------------------------------------------------------------
# exit codes of load failures that the tests above do not reach


BAD_INPUTS = {
    "vdm-invalid": "class A\nend A\nclass A\nend A\n",
    "puml-parse": "@startuml\nclass A {\n  - x : nat\n@enduml\n",
}


@pytest.mark.parametrize(
    "command,case,code",
    [
        ("vdm2uml", "missing", EXIT_IO),
        ("uml2vdm", "missing.puml", EXIT_IO),
        ("roundtrip", "missing", EXIT_IO),
        ("roundtrip", "no-vdmpp", EXIT_IO),
        ("roundtrip", "vdm-invalid", EXIT_IO),
        ("check", "missing", EXIT_IO),
        ("check", "no-vdmpp", EXIT_TRANSLATION),
        ("check", "vdm-invalid", EXIT_TRANSLATION),
        ("check", "missing.puml", EXIT_IO),
        ("check", "puml-parse", EXIT_TRANSLATION),
        ("uml2vdm", "puml-parse", EXIT_TRANSLATION),
    ],
)
def test_load_failure_exit_codes(tmp_path, capsys, command, case, code):
    if case.startswith("missing"):
        target = tmp_path / ("ghost.puml" if case.endswith(".puml") else "ghost")
    elif case == "no-vdmpp":
        target = tmp_path
        _write(tmp_path / "notes.txt", "class A\nend A\n")
    else:
        target = _write(tmp_path / ("m.puml" if case.startswith("puml") else "m.vdmpp"), BAD_INPUTS[case])
    before = sorted(tmp_path.rglob("*"))
    # a missing path is given as tmp/./ghost and named as tmp/ghost, as a read file is
    given = os.path.join(tmp_path, ".", target.name) if case.startswith("missing") else str(target)
    assert main([command, given]) == code
    err = capsys.readouterr().err
    assert "error: " in err
    if case.startswith("missing"):  # every command words it as the system does
        assert err == f"error: cannot read '{target}': {os.strerror(errno.ENOENT)}\n"
    assert sorted(tmp_path.rglob("*")) == before  # nothing is written on failure


@pytest.mark.parametrize("command,name", [("uml2vdm", "ws"), ("check", "d.puml")])
def test_directory_diagram_input_is_unreadable(tmp_path, capsys, command, name):
    # an existing path that is not a file is reported with the reason, not as missing
    target = tmp_path / name
    target.mkdir()
    assert main([command, str(target)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read '{target}': Is a directory\n"
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == [target]  # nothing is written


@pytest.mark.parametrize("argv,stdout", [
    (["check", os.devnull], "ok: 0 classes"),
    (["vdm2uml", os.devnull, "-o", "out.puml"],
     "wrote out.puml: 0 classes, 0 associations, 0 abstracted attributes"),
    (["roundtrip", os.devnull], "0/0 classes round-trip"),
], ids=["check", "vdm2uml", "roundtrip"])
def test_device_input_reads_as_an_empty_workspace(tmp_path, capsys, monkeypatch, argv, stdout):
    # an existing path that is not a directory is read like a file, not reported missing
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == (stdout + "\n", "")


def test_default_output_of_a_pipe_lies_beside_it(tmp_path):
    # only the path is looked at: the pipe is never opened, which would block
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    assert cli._default_puml_output([str(pipe)]) == tmp_path / "pipe.puml"
    assert cli._default_puml_output([str(pipe), str(pipe)]) == tmp_path / f"{tmp_path.name}.puml"


# one Latin-1 byte in a comment, which UTF-8 cannot decode
NON_UTF8 = {
    ".vdmpp": b"class A\n-- caf\xe9\nend A\n",
    ".puml": b"@startuml\nclass A\n' \xff\n@enduml\n",
}


@pytest.mark.parametrize(
    "command,suffix",
    [("vdm2uml", ".vdmpp"), ("uml2vdm", ".puml"), ("roundtrip", ".vdmpp"),
     ("check", ".vdmpp"), ("check", ".puml")],
)
def test_non_utf8_input_is_unreadable(tmp_path, capsys, command, suffix):
    src = tmp_path / f"m{suffix}"
    src.write_bytes(NON_UTF8[suffix])
    assert main([command, str(src)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read '{src}': ")
    assert "can't decode byte" in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == [src]  # nothing is written


# ---------------------------------------------------------------------------
# the cyclic collector around a command

DIAGRAM = "@startuml\nclass A {\n}\nclass B {\n}\nA --> B : assoc1\n@enduml\n"


@pytest.mark.parametrize("argv,code,caller", [
    (["vdm2uml", "ws", "-o", "m.puml"], EXIT_OK, None),
    (["uml2vdm", "d.puml", "-o", "back"], EXIT_OK, None),
    (["roundtrip", "ws"], EXIT_OK, None),
    (["check", "ws"], EXIT_OK, None),
    (["check", "d.puml"], EXIT_OK, None),
    (["vdm2uml", "bad.vdmpp", "-o", "m.puml"], EXIT_TRANSLATION, None),
    (["check", "bad.puml"], EXIT_TRANSLATION, None),
    (["vdm2uml", "ws", "-o", "missing/m.puml"], EXIT_IO, None),
    (["uml2vdm", "d.puml", "-o", "d.puml"], EXIT_IO, None),
    (["vdm2uml", "ws", "-o", "m.puml"], EXIT_OK, gc.freeze),
    (["roundtrip", "ws"], EXIT_OK, gc.disable),
], ids=["vdm2uml", "uml2vdm", "roundtrip", "check-vdm", "check-puml", "vdm-parse-error",
        "puml-parse-error", "unwritable-puml", "unwritable-dir", "caller-froze", "caller-collector-off"])
def test_no_command_leaves_objects_frozen(tmp_path, capsys, monkeypatch, argv, code, caller):
    # a command leaves the collector as its caller set it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ws").mkdir()
    _write(tmp_path / "ws" / "A.vdmpp", RULE_MODEL)
    _write(tmp_path / "ws" / "B.vdmpp", CLASS_B)
    _write(tmp_path / "d.puml", DIAGRAM)
    _write(tmp_path / "bad.vdmpp", "class A\ninstance variables\nx : ;\nend A\n")
    _write(tmp_path / "bad.puml", BAD_INPUTS["puml-parse"])
    try:
        if caller is not None:
            caller()
        before = (gc.isenabled(), gc.get_freeze_count())
        assert main(argv) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        gc.unfreeze()
        gc.enable()


def test_vdm2uml_translates_with_the_collector_off(tmp_path, monkeypatch):
    enabled = []

    def spy(model, config):
        enabled.append(gc.isenabled())
        return vdm_to_uml(model, config)

    vdm_to_uml = cli.vdm_to_uml
    monkeypatch.setattr(cli, "vdm_to_uml", spy)
    src = _write(tmp_path / "A.vdmpp", RULE_MODEL + CLASS_B)
    assert main(["vdm2uml", str(src)]) == EXIT_OK
    assert enabled == [False]
    assert gc.isenabled()


def test_vdm2uml_prints_with_the_vdm_model_released(tmp_path, monkeypatch):
    live = []

    def spy(uml, config, **kwargs):
        live.extend(o.name for o in gc.get_objects() if isinstance(o, VdmClass) and o.name.startswith("Released"))
        return print_puml(uml, config, **kwargs)

    print_puml = cli.print_puml
    monkeypatch.setattr(cli, "print_puml", spy)
    src = _write(tmp_path / "A.vdmpp", "class Released1\ninstance variables\nr : Released2;\nend Released1\n"
                 "class Released2\nvalues\nv : nat = 1;\nend Released2\n")
    out = tmp_path / "A.puml"
    assert main(["vdm2uml", str(src)]) == EXIT_OK
    assert live == []
    assert "Released1 --> Released2 : r" in out.read_text()


# ---------------------------------------------------------------------------
# the README against the program

README = Path(__file__).parents[1] / "README.md"


def _readme_block(heading, language):
    """The first fenced block in language after the README heading `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    start = section.index(f"```{language}\n") + len(f"```{language}\n")
    return section[start:section.index("```", start)]


def test_readme_synopsis_shows_the_options_of_each_command():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    synopsis = dict(line.split(maxsplit=2)[1:] for line in _readme_block("Command line", "sh").splitlines())
    assert synopsis.keys() == commands.keys()
    for command, usage in synopsis.items():
        # each option by its last, long spelling: -o is --output
        declared = {s: a.option_strings[-1] for a in commands[command]._actions if a.dest != "help"
                    for s in a.option_strings}
        shown = {declared.get(s, s) for s in re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage)}
        assert shown == set(declared.values()), command


def test_readme_library_example_runs(tmp_path, capsys, monkeypatch):
    _write(tmp_path / "Loader.vdmpp", "class Loader\ninstance variables\nqueue : seq of nat;\nend Loader\n")
    monkeypatch.chdir(tmp_path)
    exec(_readme_block("Library", "python"), {})
    assert (tmp_path / "Loader.puml").read_text(encoding="utf-8").startswith("@startuml\n")
    assert capsys.readouterr().out.startswith("-- Loader.vdmpp --\nclass Loader\n")
