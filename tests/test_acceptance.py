"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary
lines; every criterion pins its own tolerance (counts, percentages and
wall-clock budgets) directly in the assertions.
"""

import hashlib
import random
import time
from pathlib import Path

import pytest

from generators import enumerate_types, gen_uml_model, gen_vdm_model
from golden_pairs import GOLDEN_PAIRS
from vdmuml.cli import cmd_vdm2uml
from vdmuml.errors import ParseFailure
from vdmuml.model import (
    BasicType,
    Config,
    MapType,
    NamedType,
    OptionalType,
    ProductType,
    Seq1Type,
    SeqType,
    Set1Type,
    SetType,
    UnionType,
    validate_model,
    validate_uml,
)
from vdmuml.puml_frontend import parse_puml, print_puml
from vdmuml.transform import (
    abstract_type,
    canonicalize_model,
    type_abstracts,
    uml_to_vdm,
    vdm_to_uml,
)
from vdmuml.vdm_frontend import parse_vdm, print_vdm, render_type

CORPUS = Path(__file__).parent / "fixtures" / "puml_corpus"


def _report(number, name, detail):
    print(f"\nACCEPTANCE {number} ({name}): PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. golden paired examples


def test_criterion_1_golden_pairs():
    started = time.monotonic()
    config = Config()
    passed = 0
    for name, vdm_text, puml_text in GOLDEN_PAIRS:
        model = parse_vdm(vdm_text, origin=name)
        assert validate_model(model) == [], name
        produced = print_puml(vdm_to_uml(model, config), config)
        assert produced == puml_text, f"{name}: forward translation differs"

        uml = parse_puml(puml_text, origin=name)
        assert validate_uml(uml) == [], name
        back = uml_to_vdm(uml)
        assert back == canonicalize_model(model), f"{name}: backward translation differs"
        passed += 1
    elapsed = time.monotonic() - started
    assert passed == len(GOLDEN_PAIRS) == 15
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s"
    _report(1, "golden pair suite", f"{passed}/15 pairs in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. round-trip fixed point on generated lossless models


def test_criterion_2_roundtrip_fixed_point():
    started = time.monotonic()
    rng = random.Random(20240811)
    config = Config()
    runs = 500
    failures = 0
    for _ in range(runs):
        model = gen_vdm_model(rng, config)
        assert validate_model(model) == []
        back = uml_to_vdm(vdm_to_uml(model, config))
        if back != canonicalize_model(model):
            failures += 1
    elapsed = time.monotonic() - started
    assert failures == 0, f"{failures}/{runs} models failed the round trip"
    assert elapsed < 30.0, f"round-trip suite took {elapsed:.2f}s"
    _report(2, "round-trip fixed point", f"{runs}/{runs} models in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. idempotence starting from the diagram side


def test_criterion_3_uml_idempotence():
    rng = random.Random(20240812)
    runs = 500
    failures = 0
    for _ in range(runs):
        uml, config = gen_uml_model(rng)
        assert validate_uml(uml) == []
        if vdm_to_uml(uml_to_vdm(uml), config) != uml:
            failures += 1
    assert failures == 0, f"{failures}/{runs} diagram models failed idempotence"
    _report(3, "diagram-side idempotence", f"{runs}/{runs} models")


# ---------------------------------------------------------------------------
# 4. elision arithmetic against a brute-force node count


def _oracle_children(t):
    if isinstance(t, (SetType, Set1Type, SeqType, Seq1Type, OptionalType)):
        return [t.inner]
    if isinstance(t, MapType):
        return [t.domain, t.range]
    if isinstance(t, (ProductType, UnionType)):
        return list(t.members)
    return []


def _brute_count_below(t):
    count = 0
    stack = _oracle_children(t)
    while stack:
        node = stack.pop()
        if not isinstance(node, BasicType):
            count += 1
        stack.extend(_oracle_children(node))
    return count


def test_criterion_4_elision_arithmetic():
    # n-1 symbols for over-capacity products and unions, n = 2..6
    cfg = Config(gamma1=1)
    for n in range(2, 7):
        members = tuple(NamedType(f"K{i}") for i in range(n))
        assert abstract_type(ProductType(members), cfg) == "*" * (n - 1)
        assert abstract_type(UnionType(members), cfg) == "|" * (n - 1)

    # trigger point: exhaustive over every tree of depth <= 3 built from
    # two basics and two class names, against an independent node count
    pool = enumerate_types()
    configs = [Config(0, 0), Config(1, 1), Config(2, 1), Config(2, 2)]
    checked = 0
    for t in pool:
        if isinstance(t, (BasicType, NamedType)):
            continue
        count = _brute_count_below(t)
        for cfg in configs:
            if isinstance(t, MapType):
                cap = 2 * cfg.gamma0
            elif isinstance(t, (ProductType, UnionType)):
                cap = cfg.gamma1
            else:
                cap = cfg.gamma0
            expected = count > cap
            assert type_abstracts(t, cfg) == expected, (t, cfg)
            if not expected:
                assert abstract_type(t, cfg) == render_type(t), (t, cfg)
            checked += 1
    assert checked > 60_000
    _report(4, "elision arithmetic", f"{checked} exhaustive checks, symbol rule n=2..6")


# ---------------------------------------------------------------------------
# 5. grammar conformance corpus


def test_criterion_5_grammar_corpus():
    valid = sorted((CORPUS / "valid").glob("*.puml"))
    invalid = sorted((CORPUS / "invalid").glob("*.puml"))
    assert len(valid) == 20 and len(invalid) == 10
    correct = 0
    for path in valid:
        model = parse_puml(path.read_text(encoding="utf-8"), origin=path.name)
        assert validate_uml(model) == [], path.name
        correct += 1
    for path in invalid:
        with pytest.raises(ParseFailure) as exc:
            parse_puml(path.read_text(encoding="utf-8"), origin=path.name)
        assert exc.value.errors, path.name
        for error in exc.value.errors:
            assert error.span.line >= 1, f"{path.name}: rejection without a line number"
        correct += 1
    assert correct == 30
    _report(5, "grammar conformance", "30/30 corpus files classified, all rejections carry lines")


# ---------------------------------------------------------------------------
# 6. byte-identical repeated translation


def test_criterion_6_determinism(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "Core.vdmpp").write_text(
        "class Core\nvalues\nlimit : nat = 10;\ninstance variables\n"
        "peers : set of Node;\ntable : inmap nat to seq of Node;\n"
        "deep : nat * bool * char;\noperations\nstep : nat ==> nat\nstep(n) == n;\nend Core\n",
        encoding="utf-8",
    )
    (ws / "Node.vdmpp").write_text("class Node\nend Node\n", encoding="utf-8")
    digests = set()
    for run in range(3):
        out = tmp_path / f"run{run}.puml"
        report = cmd_vdm2uml([str(ws)], str(out), Config(gamma1=1))
        assert report.exit_code == 0
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1, "outputs differ between runs"
    _report(6, "determinism", "3 runs, one sha256")


# ---------------------------------------------------------------------------
# 7. printed output is always re-accepted by the matching parser


def test_criterion_7_print_parse_closure():
    config = Config()
    rng = random.Random(20240813)
    checked = 0
    for _ in range(150):
        model = canonicalize_model(gen_vdm_model(rng, config))
        uml = vdm_to_uml(model, config)
        assert parse_puml(print_puml(uml, config)) == uml
        joined = "".join(text for _, text in print_vdm(model))
        assert parse_vdm(joined) == model
        checked += 1
    for _ in range(150):
        uml, cfg = gen_uml_model(rng)
        assert parse_puml(print_puml(uml, cfg)) == uml
        back = uml_to_vdm(uml)
        joined = "".join(text for _, text in print_vdm(back))
        assert parse_vdm(joined) == back
        checked += 1
    _report(7, "print/parse closure", f"{checked} printed models re-accepted")
