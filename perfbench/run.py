#!/usr/bin/env python3
"""Benchmark of the vdmuml command-line translator on seeded workspaces.

Run from the root of a vdmuml checkout:

    python3 perfbench/run.py --workload vdm2uml-bodies --seed 1 --seconds 40 --trace 0

--trace 0 runs the CLI as a subprocess in a closed loop (one client; each
run starts when the previous one exits) for --seconds and reports the
end-to-end metrics, with times stated at a fixed reference speed measured
by blocks of reference work between the runs. --trace 1 calls the same
command in process, once plainly and once with spans around every layer,
at full and at quarter size, and reports the per-layer metrics. Every
run's exit code, summary and output files are checked against facts the
generator knows by construction. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workspaces  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORDED_INPUTS = HERE / "inputs.json"

MIN_RUNS = 3
SETUP_PER_RUN = 3  # fresh-interpreter imports timed before each CLI run
TIME_LIMIT_S = 165.0  # every invocation ends well inside 180 s
CLI_ENTRY = "import sys; from vdmuml.cli import main; sys.exit(main())"

# Span names each workload's command must produce; a span that never fires is an error.
REQUIRED_SPANS = {
    "vdm2uml-bodies": (
        "cli.cmd_vdm2uml", "vdm_frontend.parse_vdm", "model.validate_model",
        "transform.vdm_to_uml", "puml_frontend.print_puml", "transform.lossy_members",
        "transform.classify_instance_variable",
    ),
    "uml2vdm-chains": (
        "cli.cmd_uml2vdm", "puml_frontend.parse_puml", "model.validate_uml",
        "transform.uml_to_vdm", "vdm_frontend.parse_vdm_type", "model.validate_model",
        "vdm_frontend.print_vdm",
    ),
    "roundtrip-elided": (
        "cli.cmd_roundtrip", "vdm_frontend.parse_vdm", "model.validate_model",
        "transform.lossy_members", "transform.vdm_to_uml", "transform.uml_to_vdm",
        "vdm_frontend.parse_vdm_type", "transform.canonicalize_model",
        "transform.classify_instance_variable",
    ),
}
# The eight ROADMAP stages whose size -> time slope is reported.
STAGES = (
    "vdm_frontend.parse_vdm", "model.validate_model", "transform.vdm_to_uml",
    "puml_frontend.print_puml", "puml_frontend.parse_puml", "model.validate_uml",
    "transform.uml_to_vdm", "vdm_frontend.print_vdm",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (not a failed run of the program)."""


# ---------------------------------------------------------------------------
# Workloads: command lines and output checks


def cli_args(ws: workspaces.Workspace, inputs: Path, out: Path) -> list[str]:
    if ws.workload == "vdm2uml-bodies":
        return ["vdm2uml", str(inputs), "-o", str(out)]
    if ws.workload == "uml2vdm-chains":
        return ["uml2vdm", str(inputs / "model.puml"), "-o", str(out)]
    return ["roundtrip", str(inputs)]


def output_path(ws: workspaces.Workspace, run_dir: Path, tag: str) -> Path:
    return run_dir / (f"{tag}.puml" if ws.workload == "vdm2uml-bodies" else tag)


def remove(path: Path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def check_run(ws: workspaces.Workspace, code: int, stdout: str, out: Path) -> tuple[list[str], str]:
    """Compare one run with the generator's expectations; returns (problems, output sha256)."""
    e = ws.expect
    n = e["classes"]
    problems: list[str] = []
    digest = hashlib.sha256()
    if ws.workload == "vdm2uml-bodies":
        want = (f"wrote {out}: {n} classes, {e['associations']} associations, "
                f"{e['abstracted_attributes']} abstracted attributes")
        want_code = 0
        if out.is_file():
            data = out.read_bytes()
            digest.update(data)
            lines = data.decode().splitlines()
            counts = (
                sum(1 for line in lines if line.startswith("class ")),
                sum(1 for line in lines if " <|-- " in line),
                sum(1 for line in lines if " --> " in line),
            )
            if counts != (n, e["generalizations"], e["associations"]):
                problems.append(f"diagram has (classes, generalizations, associations) = {counts}")
        else:
            problems.append("no diagram written")
    elif ws.workload == "uml2vdm-chains":
        want = f"wrote {n} files to {out}"
        want_code = 0
        written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
        if written != [f"{c}.vdmpp" for c in ws.class_names]:
            problems.append(f"wrote {len(written)} files, not one per class")
        for name in written:
            digest.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    else:
        lossy = e["lossy"]
        lines = [
            f"FAIL {c}: abstraction loses type information for " + ", ".join(f"'{m}'" for m in lossy[c])
            if c in lossy else f"PASS {c}"
            for c in ws.class_names
        ]
        lines.append(f"{n - len(lossy)}/{n} classes round-trip")
        want = "\n".join(lines)
        want_code = 1 if lossy else 0
        digest.update(stdout.encode())
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if stdout.strip() != want:
        problems.append("summary differs from the generated expectation: " + stdout.strip()[:200])
    return problems, digest.hexdigest()


# ---------------------------------------------------------------------------
# Processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("VDMUML_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], logs: Path, timeout: float):
    """Run one process to completion; returns (wall s, cpu s, peak rss MB, exit code, stdout)."""
    with open(logs / "stdout", "w+", encoding="utf-8") as out, open(logs / "stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, out.read()


# Fixed interpreter work whose time tracks this host's speed, which drifts by up to 1.7x
# over minutes; the end-to-end times are stated at a fixed reference speed. Of the
# candidates tried, generating a tiny workspace plus an integer loop tracked the
# translator's runs best (see perfbench/README.md).
REFERENCE_BLOCK_S = 1.0  # one block of reference work runs before each repetition and after the last
REFERENCE_CHUNK_S = 0.0035  # the chunk's time at the reference speed the metrics are stated at


def reference_chunk() -> int:
    workspaces.generate("vdm2uml-bodies", 1, 4)
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def reference_block() -> float:
    """Mean time of one reference chunk, over REFERENCE_BLOCK_S of back-to-back chunks."""
    chunks = 0
    start = time.perf_counter()
    while time.perf_counter() - start < REFERENCE_BLOCK_S:
        reference_chunk()
        chunks += 1
    return (time.perf_counter() - start) / chunks


def spread(values: list[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)


def end_to_end(ws, inputs: Path, run_dir: Path, seconds: float, deadline: float):
    py = sys.executable
    setup, walls, cpus, rss, chunks, digests, failures = [], [], [], [], [], set(), 0
    first_out = None
    started = time.perf_counter()
    step = 0.0  # duration of the last repetition; no repetition starts that would overrun --seconds
    while len(walls) < MIN_RUNS or time.perf_counter() - started + step <= seconds:
        if time.perf_counter() + 2 * step > deadline:
            break
        step_start = time.perf_counter()
        # reference and set-up samples are spread over the run so they see the same machine conditions
        chunks.append(reference_block())
        for _ in range(SETUP_PER_RUN):
            wall, _, _, code, _ = run_child([py, "-c", "import vdmuml.cli"], run_dir, deadline - time.perf_counter())
            if code != 0:
                raise BenchError("importing vdmuml.cli failed")
            setup.append((wall, len(walls)))
        out = output_path(ws, run_dir, f"out-{len(walls)}")
        wall, cpu, peak, code, stdout = run_child(
            [py, "-c", CLI_ENTRY, *cli_args(ws, inputs, out)], run_dir, deadline - time.perf_counter())
        problems, digest = check_run(ws, code, stdout, out)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        digests.add(digest)
        if problems:
            failures += 1
            print(f"run {len(walls)} failed: {'; '.join(problems)}")
        if first_out is None and not problems:
            first_out = out  # kept for `vdmuml check`
        else:
            remove(out)
        step = time.perf_counter() - step_start
    chunks.append(reference_block())  # closes the last repetition
    if len(digests) > 1:
        print(f"outputs differ between runs: {len(digests)} distinct sha256")
        failures = max(failures, 1)
    if ws.workload == "uml2vdm-chains" and first_out is not None:
        # the written skeletons must pass `vdmuml check`
        _, _, _, code, stdout = run_child(
            [py, "-c", CLI_ENTRY, "check", str(first_out)], run_dir, deadline - time.perf_counter())
        if code != 0 or stdout.strip() != f"ok: {ws.expect['classes']} classes":
            print(f"`vdmuml check` rejected the uml2vdm output: {stdout.strip()[:200]}")
            failures = max(failures, 1)

    # Each time is stated at the reference speed: measured time x REFERENCE_CHUNK_S / the
    # reference chunk's time around it (the mean of the blocks just before and just after
    # its repetition); the metric is the median over the run. Measured medians are printed too.
    n = len(walls)
    local = [(before + after) / 2 for before, after in zip(chunks, chunks[1:])]

    def at_reference(samples):
        return statistics.median(t * REFERENCE_CHUNK_S / local[rep] for t, rep in samples)

    wall_s = at_reference(zip(walls, range(n)))
    print(f"  reference chunk median {statistics.median(chunks) * 1e3:.4f} ms over {len(chunks)} blocks "
          f"(spread {spread(chunks):.1%})")
    lines = [
        ("wall_s", wall_s, "s", f"median of {n} runs, closed loop with 1 client; "
                                f"measured {statistics.median(walls):.4f} s"),
        ("classes_per_s", ws.expect["classes"] / wall_s, "1/s", f"{ws.expect['classes']} classes / wall_s"),
        ("cpu_s", at_reference(zip(cpus, range(n))), "s",
         f"median user+sys of {n} runs; measured {statistics.median(cpus):.4f} s"),
        ("peak_rss_mb", statistics.median(rss), "MB", f"median peak RSS of {n} runs"),
        ("setup_s", at_reference(setup), "s", f"median of {len(setup)} fresh `import vdmuml.cli`; "
                                             f"measured {statistics.median(t for t, _ in setup):.4f} s"),
    ]
    print(f"  output sha256  {', '.join(sorted(digests))}")
    return lines, n, failures


# ---------------------------------------------------------------------------
# Traced run (per layer, in process)


def load_program():
    sys.path.insert(0, str(SRC))
    import vdmuml.cli as cli
    import vdmuml.transform as transform

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"vdmuml was imported from {cli.__file__}, not from {SRC}")
    return cli, transform


def in_process(cli, argv: list[str]) -> tuple[float, int, str]:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def pass_metrics(tracer: tracing.Tracer, ws) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the time of each ROADMAP stage."""
    total, own, calls = tracer.summary()
    missing = [name for name in REQUIRED_SPANS[ws.workload] if calls[name] == 0]
    if missing:
        raise BenchError(f"spans never fired on {ws.workload}: {', '.join(missing)}")
    report = next(tracer.results[n] for n in tracer.results if n.startswith("cli.cmd_"))
    bytes_in = sum(os.path.getsize(p) for p in report.files_read)
    bytes_out = sum(os.path.getsize(p) for p in report.files_written)

    def rate(name):
        return bytes_in / 1e6 / total[name] if total[name] else 0.0

    ivars = ws.expect.get("non_static_ivars", 0)
    metrics = {
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.cmd_")),
        "cli.files_read": len(report.files_read),
        "cli.files_written": len(report.files_written),
        "cli.bytes_in": bytes_in,
        "cli.bytes_out": bytes_out,
        "vdm_frontend.parse_vdm_s": total["vdm_frontend.parse_vdm"],
        "vdm_frontend.parse_vdm_MBps": rate("vdm_frontend.parse_vdm"),
        "vdm_frontend.parse_vdm_type_s": total["vdm_frontend.parse_vdm_type"],
        "vdm_frontend.parse_vdm_type_calls": calls["vdm_frontend.parse_vdm_type"],
        "vdm_frontend.print_vdm_s": total["vdm_frontend.print_vdm"],
        "puml_frontend.parse_puml_s": total["puml_frontend.parse_puml"],
        "puml_frontend.parse_puml_MBps": rate("puml_frontend.parse_puml"),
        "puml_frontend.print_puml_s": total["puml_frontend.print_puml"],
        "transform.uml_to_vdm_self_s": own["transform.uml_to_vdm"],
        "transform.vdm_to_uml_s": total["transform.vdm_to_uml"],
        "transform.lossy_members_s": total["transform.lossy_members"],
        "transform.canonicalize_model_s": total["transform.canonicalize_model"],
        "transform.classify_calls_per_ivar": calls["transform.classify_instance_variable"] / ivars if ivars else 0.0,
        "transform.elided_members": len(tracer.results.get("transform.lossy_members", ())),
        "model.validate_model_s": total["model.validate_model"],
        "model.validate_uml_s": total["model.validate_uml"],
    }
    return metrics, {stage: total[stage] for stage in STAGES}


def traced(ws, quarter, full_dir: Path, quarter_dir: Path, run_dir: Path, seconds: float, deadline: float):
    cli, transform = load_program()
    plain_walls, traced_walls, per_pass, full_stages, quarter_stages = [], [], [], [], []
    digests, attempted, failures = set(), 0, 0
    last_spans = []
    started = time.perf_counter()
    step = 0.0  # duration of the last round; no round starts that would overrun --seconds
    while not per_pass or time.perf_counter() - started + step <= seconds:
        if time.perf_counter() + 2 * step > deadline:
            break
        step_start = time.perf_counter()
        # one plain and one traced pass at full size, alternating which goes first, then ¼ size traced
        full = [(ws, full_dir, False), (ws, full_dir, True)]
        for space, inputs, with_spans in full[::1 if len(per_pass) % 2 == 0 else -1] + [(quarter, quarter_dir, True)]:
            out = output_path(space, run_dir, f"trace-{attempted}")
            tracer = tracing.Tracer()
            with tracer.installed(cli, transform) if with_spans else contextlib.nullcontext():
                wall, code, stdout = in_process(cli, cli_args(space, inputs, out))
            attempted += 1
            problems, digest = check_run(space, code, stdout, out)
            if space is ws:
                digests.add(digest)
            if with_spans:
                metrics, stages = pass_metrics(tracer, space)
                elided = metrics["transform.elided_members"]
                if "transform.lossy_members" in tracer.results and elided != space.expect["elided_members"]:
                    problems.append(f"lossy_members found {elided} elided members, "
                                    f"expected {space.expect['elided_members']}")
                if space is ws:
                    per_pass.append(metrics)
                    full_stages.append(stages)
                    traced_walls.append(wall)
                    last_spans = tracer.spans
                else:
                    quarter_stages.append(stages)
            else:
                plain_walls.append(wall)
            remove(out)
            if problems:
                failures += 1
                print(f"in-process pass {attempted} failed: {'; '.join(problems)}")
        step = time.perf_counter() - step_start
    if len(digests) > 1:
        print(f"outputs differ between plain and traced passes: {len(digests)} distinct sha256")
        failures = max(failures, 1)

    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics.update(ws.props)
    ratio = math.log(ws.expect["classes"] / quarter.expect["classes"])
    for stage in STAGES:
        big = statistics.median(s[stage] for s in full_stages)
        small = statistics.median(s[stage] for s in quarter_stages)
        metrics[f"{stage}.size_exponent"] = math.log(big / small) / ratio if big > 0 and small > 0 else 0.0
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    spans_file = WORK / f"spans-{ws.workload}.json"
    spans_file.write_text(json.dumps(last_spans))
    print(f"  {len(per_pass)} rounds; spans of the last full-size pass written to {spans_file.relative_to(ROOT)}")
    return metrics, attempted, failures


# ---------------------------------------------------------------------------
# Entry point


def machine() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "vdmuml").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10).stdout.strip() or revision
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_revision": revision, "source_sha256": source.hexdigest()}


def load_workspaces(workload: str, seed: int, scale: float, run_dir: Path):
    n = workspaces.size_for(workload, scale)
    full = workspaces.generate(workload, seed, n)
    digest = full.digest()
    recorded = json.loads(RECORDED_INPUTS.read_text()).get(workload, {}) if RECORDED_INPUTS.exists() else {}
    if scale == 1.0 and str(seed) in recorded and recorded[str(seed)] != digest:
        raise BenchError(f"seed {seed} generated input sha256 {digest}, recorded {recorded[str(seed)]}")
    full_dir = run_dir / "inputs"
    full.write(full_dir)
    return full, full_dir, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workspaces.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="workspace size factor (smoke runs use 0.02)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not (SRC / "vdmuml" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'vdmuml' / 'cli.py'} not found; run from the root of a vdmuml checkout",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("VDMUML_")]:
        del os.environ[key]  # the workloads use the default capacities

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        ws, ws_dir, digest = load_workspaces(args.workload, args.seed, args.scale, run_dir)
        print(f"workload {args.workload}: seed {args.seed}, {ws.expect['classes']} classes, "
              f"{ws.props['input.bytes']} input bytes, input sha256 {digest}")
        if args.trace:
            quarter = workspaces.generate(args.workload, args.seed, ws.expect["classes"] // 4)
            quarter_dir = run_dir / "inputs-quarter"
            quarter.write(quarter_dir)
            metrics, attempted, failed = traced(ws, quarter, ws_dir, quarter_dir, run_dir, args.seconds, deadline)
            units = {}
            for name, value in metrics.items():
                unit = ("s" if name.endswith("_s") else "MB/s" if name.endswith("MBps") else "B" if "bytes" in name
                        else "ratio" if name.endswith(("_frac", "size_exponent", "_per_ivar")) else "count")
                units[name] = unit
                print(f"  {name:42s} {value:14.6g} {unit}")
        else:
            lines, attempted, failed = end_to_end(ws, ws_dir, run_dir, args.seconds, deadline)
            metrics, units = {}, {}
            for name, value, unit, detail in lines:
                metrics[name], units[name] = value, unit
                print(f"  {name:14s} {value:12.6g} {unit:4s} {detail}")
            print(f"  failed_frac    {failed / attempted:12.6g} ratio ({failed} of {attempted} runs failed)")
        info = machine()
        print(f"machine: nproc {info['nproc']}, python {info['python']}, git revision {info['git_revision']}, "
              f"source sha256 {info['source_sha256'][:16]}")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
