"""Seeded input workspaces for the three benchmark workloads.

Every input text is rendered here by the benchmark's own printers, never
by the translator under test, so the inputs for a seed are byte-identical
on every commit. The facts the checks compare against (class, association
and generalization counts, elided members, the round-trip PASS/FAIL tally)
are computed by construction from the generated type trees, with an
independent node count for elision; the translator is never asked.

Types are plain tuples:
    ("basic", name) ("named", name)
    ("set" | "set1" | "seq" | "seq1" | "opt", inner)
    ("map", domain, range, injective)
    ("prod" | "union", members)
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

GAMMA0, GAMMA1 = 2, 1  # the translator's default capacities

BASICS = ("bool", "nat", "nat1", "int", "rat", "real", "char", "token")
FREE_NAMES = ("Key", "Code", "Word", "Tag", "Amount")  # never class names
PREFIX = {"set": "set of", "set1": "set1 of", "seq": "seq of", "seq1": "seq1 of"}
UNARY = ("set", "set1", "seq", "seq1", "opt")
ACCESS_WORDS = ("public", "private", "protected")
SIGILS = {"public": "+", "private": "-", "protected": "#"}
MULTIPLICITY_LABELS = (None, '"0..1"', '"0..*"', '"1..*"', '"(0..*)"', '"(1..*)"')

# Full-size class counts; --scale multiplies them.
SIZES = {"vdm2uml-bodies": 2000, "uml2vdm-chains": 3000, "roundtrip-elided": 1500}
CHAINS = 10  # uml2vdm-chains: chain depth grows with size, so depth-bound work shows as a slope


# ---------------------------------------------------------------------------
# Type trees


def children(t):
    if t[0] in UNARY:
        return (t[1],)
    if t[0] == "map":
        return (t[1], t[2])
    if t[0] in ("prod", "union"):
        return t[1]
    return ()


def nodes_below(t) -> int:
    """Non-basic nodes strictly below the root, counted iteratively."""
    count = 0
    stack = list(children(t))
    while stack:
        node = stack.pop()
        if node[0] != "basic":
            count += 1
        stack.extend(children(node))
    return count


def elided(t) -> bool:
    """True when the diagram rendering of t drops type information."""
    if t[0] == "map":
        cap = 2 * GAMMA0
    elif t[0] in UNARY:
        cap = GAMMA0
    elif t[0] in ("prod", "union"):
        cap = GAMMA1
    else:
        return False
    return nodes_below(t) > cap


def is_association(t, class_names) -> bool:
    """Object-reference shape: a class, under at most one unary layer, or a map onto one."""

    def reference(u):
        if u[0] == "named":
            return u[1] in class_names
        return u[0] in UNARY and u[1][0] == "named" and u[1][1] in class_names

    return reference(t) or (t[0] == "map" and reference(t[2]))


def render(t) -> str:
    kind = t[0]
    if kind in ("basic", "named"):
        return t[1]
    if kind in PREFIX:
        return f"{PREFIX[kind]} {_wrap(t[1], ('prod', 'union', 'map'))}"
    if kind == "opt":
        return f"[{render(t[1])}]"
    if kind == "map":
        return f"{'inmap' if t[3] else 'map'} {_wrap(t[1], ('map',))} to {render(t[2])}"
    if kind == "prod":
        return " * ".join(_wrap(m, ("prod", "union", "map")) for m in t[1])
    return " | ".join(_wrap(m, ("union", "map")) for m in t[1])


def _wrap(t, grouped) -> str:
    return f"({render(t)})" if t[0] in grouped else render(t)


def random_type(rng, depth, class_names):
    """Random tree of at most `depth` constructor levels."""
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.55:
            return ("basic", rng.choice(BASICS))
        if roll < 0.8 or not class_names:
            return ("named", rng.choice(FREE_NAMES))
        return ("named", rng.choice(class_names))
    kind = rng.choice(("set", "set1", "seq", "seq1", "opt", "map", "prod", "union"))
    sub = lambda: random_type(rng, depth - 1, class_names)  # noqa: E731
    if kind in UNARY:
        return (kind, sub())
    if kind == "map":
        return ("map", sub(), sub(), rng.random() < 0.3)
    return (kind, tuple(sub() for _ in range(rng.randint(2, 3))))


def pick_type(rng, depth, class_names, *, lossy=False, attribute=False):
    """Random type that elides exactly when `lossy`; `attribute` excludes association shapes."""
    while True:
        t = random_type(rng, depth, class_names)
        if elided(t) == lossy and not (attribute and is_association(t, class_names)):
            return t


def association_type(rng, class_names):
    target = ("named", rng.choice(class_names))
    shape = rng.randrange(7)
    if shape == 0:
        return target
    if shape < 6:
        return (UNARY[shape - 1], target)
    return ("map", ("basic", rng.choice(BASICS)), (rng.choice(UNARY), target), rng.random() < 0.5)


# ---------------------------------------------------------------------------
# Workspaces


@dataclass
class Workspace:
    workload: str
    files: dict[str, str]  # relative path -> text, in the CLI's reading order
    class_names: list[str]  # in model order
    expect: dict  # facts the checks compare outputs against
    props: dict = field(default_factory=dict)  # input.* metrics

    def write(self, root: Path):
        root.mkdir(parents=True, exist_ok=True)
        for rel, text in self.files.items():
            (root / rel).write_text(text, encoding="utf-8", newline="\n")

    def digest(self) -> str:
        h = hashlib.sha256()
        for rel in sorted(self.files):
            h.update(rel.encode() + b"\0" + self.files[rel].encode() + b"\0")
        return h.hexdigest()


def size_for(workload: str, scale: float) -> int:
    return max(CHAINS * 2, int(SIZES[workload] * scale) // 4 * 4)


def generate(workload: str, seed: int, n_classes: int) -> Workspace:
    rng = random.Random(f"{workload}:{seed}:{n_classes}")
    names = [f"C{i:05d}" for i in range(n_classes)]  # sorted once, unique, zero-padded
    if workload == "vdm2uml-bodies":
        return _vdm_workspace(workload, rng, names, bodies=True)
    if workload == "roundtrip-elided":
        return _vdm_workspace(workload, rng, names, bodies=False)
    if workload == "uml2vdm-chains":
        return _uml_workspace(workload, rng, names)
    raise ValueError(f"unknown workload {workload!r}")


def _props(ws_files, class_names, type_texts, depths, lossy_classes) -> dict:
    return {
        "input.classes": len(class_names),
        "input.bytes": sum(len(t.encode()) for t in ws_files.values()),
        "input.type_texts": len(type_texts),
        "input.distinct_type_text_frac": len(set(type_texts)) / len(type_texts),
        "input.max_inheritance_depth": max(depths),
        "input.lossy_class_frac": len(lossy_classes) / len(class_names),
    }


# -- VDM++ side ----------------------------------------------------------------

_VALUE_EXPRS = (
    "10",
    '"a;b;c"',
    "mk_(1, [2, (3 + 4)], {5})",
    "{ 'x', 'y' }  /* set of chars; not a terminator */",
)
_TERMS = ("p1", "len acc", "card {1, 2, (3)}", '"x;(y"', "[ 'c', 'd' ]", "(1 + (2 * 3))")


def _op_body(rng, lines: int) -> str:
    """Multi-line statement body; everything sits inside one outer bracket pair."""
    out = [f'( dcl acc : seq of char := "{rng.choice(("a;b", "(", "[x]"))}";   -- running text; with ;']
    for k in range(lines):
        roll = rng.randrange(4)
        term = rng.choice(_TERMS)
        if roll == 0:
            out.append(f"  /* step {k}: scan (nested) input; stop early */")
        if roll == 1:
            out.append(f"  for e in [{term}, ({term}), [3, {{4, 5}}]] do acc := acc ^ \"s;{k}\";")
        elif roll == 2:
            out.append(f"  if {term} > {k} then acc := acc ^ [ 'q' ] else skip;  -- branch {k}; ok")
        else:
            out.append(f"  acc := acc ^ \"({k});\" ^ [ 'z' ];")
    out.append("  return acc )")
    return "\n    ".join(out)


def _fn_body(rng) -> str:
    term = rng.choice(_TERMS)
    return (
        f"let s = {{1, 2, ({term})}} in  /* a set; of terms */\n"
        f"      card s + len \"a;(b\" + (if {term} = 0 then 1 else (2 * [3, 4](1)))  -- done; really"
        "\n    "
    )


def _vdm_workspace(workload, rng, names, *, bodies: bool) -> Workspace:
    files: dict[str, str] = {}
    type_texts: list[str] = []
    depths: list[int] = []
    lossy_classes: list[str] = []
    expect = {"associations": 0, "generalizations": 0, "abstracted_attributes": 0,
              "elided_members": 0, "lossy": {}, "non_static_ivars": 0}
    max_depth = 5 if bodies else 3
    shallow: list[int] = []  # indexes of classes that may still take a subclass
    sig_depth = 2 if bodies else 3

    for i, name in enumerate(names):
        supers: list[int] = []
        if shallow and rng.random() < 0.5:
            supers.append(rng.choice(shallow))
            if rng.random() < 0.15:
                other = rng.choice(shallow)
                if other not in supers:
                    supers.append(other)
        depth = 1 + max((depths[s] for s in supers), default=-1)
        depths.append(depth)
        if depth < max_depth:
            shallow.append(i)
        expect["generalizations"] += len(supers)
        known = names[max(0, i - 40):i + 40]  # references reach a window of nearby classes

        # roundtrip-elided: only a lossy class draws elided types, and at least one of its
        # members does; vdm2uml-bodies: any member elides with a small probability
        lossy_class = (not bodies) and rng.random() < 0.5
        lossy_members: list[str] = []

        def lossy_roll(kind_weight=0.35):
            if bodies:
                return rng.random() < 0.06
            return lossy_class and rng.random() < kind_weight

        lines = [f"-- {name}: generated class {i}"]
        header = f"class {name}"
        if supers:
            header += " is subclass of " + ", ".join(names[s] for s in supers)
        lines.append(header)

        counter = 0

        def member(prefix):
            nonlocal counter
            counter += 1
            return f"{prefix}{counter}"

        values = []
        for _ in range(rng.randint(0, 2)):
            lossy = lossy_roll()
            t = pick_type(rng, 2, known, lossy=lossy)
            expr = rng.choice(_VALUE_EXPRS) if bodies else "undefined"
            values.append((member("v"), t, expr, lossy))
        typedefs = []
        for _ in range(rng.randint(0, 2 if bodies else 1)):
            lossy = lossy_roll()
            typedefs.append((member("t"), pick_type(rng, sig_depth, known, lossy=lossy), lossy))
        ivars = []
        for _ in range(rng.randint(3, 6)):
            static = rng.random() < 0.15
            if rng.random() < 0.4:
                t, lossy = association_type(rng, known), False
            else:
                lossy = lossy_roll()
                t = pick_type(rng, sig_depth, known, lossy=lossy, attribute=True)
            init = rng.choice((None, None, "0", "[1, (2)]", '"s;t"')) if bodies else None
            ivars.append((member("iv"), static, t, init, lossy))
        callables = []
        for kind in ("op", "fn"):
            for _ in range(rng.randint(2, 4) if kind == "op" else rng.randint(1, 2)):
                params = [pick_type(rng, sig_depth, known, lossy=False) for _ in range(rng.randint(0, 3))]
                ret = pick_type(rng, sig_depth, known, lossy=False)
                lossy = lossy_roll(0.25)
                if lossy:  # put the elided type in one slot of the signature
                    slot = rng.randrange(len(params) + 1)
                    bad = pick_type(rng, 3, known, lossy=True)
                    if slot == len(params):
                        ret = bad
                    else:
                        params[slot] = bad
                callables.append((kind, member(kind), rng.random() < 0.2, params, ret, lossy))

        if lossy_class and not any(v[3] for v in values) and not any(t[2] for t in typedefs) \
                and not any(v[4] for v in ivars) and not any(c[5] for c in callables):
            # guarantee the class is lossy: one more elided type definition
            typedefs.append((member("t"), pick_type(rng, 3, known, lossy=True), True))

        if values:
            lines.append("values")
            for vname, t, expr, lossy in values:
                lines.append(f"  {rng.choice(ACCESS_WORDS)} {vname} : {render(t)} = {expr};")
                type_texts.append(render(t))
                if lossy:
                    lossy_members.append(vname)
        if typedefs:
            lines.append("types")
            for tname, t, lossy in typedefs:
                lines.append(f"  {rng.choice(ACCESS_WORDS)} {tname} = {render(t)};")
                type_texts.append(render(t))
                if lossy:
                    lossy_members.append(tname)
        if ivars:
            lines.append("instance variables")
            for vname, static, t, init, lossy in ivars:
                prefix = rng.choice(ACCESS_WORDS) + (" static" if static else "")
                line = f"  {prefix} {vname} : {render(t)}"
                line += f" := {init};" if init else ";"
                lines.append(line)
                type_texts.append(render(t))
                if not static:
                    expect["non_static_ivars"] += 1
                if not static and is_association(t, known):
                    expect["associations"] += 1
                elif elided(t):
                    lossy_members.append(vname)
        for kind, block, arrow in (("op", "operations", "==>"), ("fn", "functions", "->")):
            group = [c for c in callables if c[0] == kind]
            if not group:
                continue
            lines.append(block)
            for _, cname, static, params, ret, lossy in group:
                domain = " * ".join(_wrap(p, ("prod", "union", "map")) for p in params) or "()"
                prefix = rng.choice(ACCESS_WORDS) + (" static" if static else "")
                lines.append(f"  {prefix} {cname} : {domain} {arrow} {render(ret)}")
                type_texts.extend(render(p) for p in params)
                type_texts.append(render(ret))
                patterns = ", ".join(f"p{k + 1}" for k in range(len(params)))
                if bodies:
                    body = _op_body(rng, rng.randint(2, 4)) if kind == "op" else _fn_body(rng)
                else:
                    body = "is not yet specified"
                lines.append(f"  {cname}({patterns}) ==\n    {body};")
                if lossy:
                    lossy_members.append(cname)
        lines.append(f"end {name}")
        files[f"{name}.vdmpp"] = "\n".join(lines) + "\n"

        attribute_lossy = [m for m in lossy_members if not m.startswith(("op", "fn"))]
        expect["abstracted_attributes"] += len(attribute_lossy)
        expect["elided_members"] += len(lossy_members)
        if lossy_members:
            lossy_classes.append(name)
            expect["lossy"][name] = sorted(lossy_members)

    expect["classes"] = len(names)
    return Workspace(workload, files, list(names), expect,
                     _props(files, names, type_texts, depths, lossy_classes))


# -- PlantUML side -------------------------------------------------------------


def _uml_workspace(workload, rng, names) -> Workspace:
    chain_len = len(names) // CHAINS
    lines = ["@startuml", "skinparam classAttributeIconSize 0"]
    generalization_lines: list[str] = []
    association_lines: list[str] = []
    type_texts: list[str] = []
    depths: list[int] = []

    for i, name in enumerate(names):
        position = i % chain_len if i < chain_len * CHAINS else 0
        depths.append(position)
        if position:
            generalization_lines.append(f"{names[i - 1]} <|-- {name}")
        known = names[max(0, i - 40):i + 40]
        lines.append(f"class {name} {{")
        counter = 0

        def member(prefix):
            nonlocal counter
            counter += 1
            return f"{prefix}{counter}"

        def within():
            text = render(pick_type(rng, 2, known, lossy=False))
            type_texts.append(text)
            return text

        if rng.random() < 0.5:
            lines.append(f"  {SIGILS[rng.choice(ACCESS_WORDS)]} {member('v')} : {within()} <<value>>")
        if rng.random() < 0.5:
            lines.append(f"  {SIGILS[rng.choice(ACCESS_WORDS)]} {member('t')} : {within()} <<type>>")
        for _ in range(rng.randint(2, 4)):
            static = "{static} " if rng.random() < 0.2 else ""
            lines.append(f"  {SIGILS[rng.choice(ACCESS_WORDS)]} {static}{member('a')} : {within()}")
        for kind in ("op", "fn"):
            for _ in range(rng.randint(2, 3) if kind == "op" else rng.randint(0, 1)):
                static = "{static} " if rng.random() < 0.2 else ""
                params = ", ".join(within() for _ in range(rng.randint(0, 2)))
                marker = " <<function>>" if kind == "fn" else ""
                lines.append(
                    f"  {SIGILS[rng.choice(ACCESS_WORDS)]} {static}{member(kind)}({params}) : {within()}{marker}"
                )
        lines.append("}")
        for _ in range(rng.randint(0, 2)):
            role = member("r")
            visibility = "" if rng.random() < 0.5 else SIGILS[rng.choice(ACCESS_WORDS)] + " "
            qualifier = ""
            if rng.random() < 0.3:
                key = rng.choice(BASICS + FREE_NAMES)
                type_texts.append(key)
                qualifier = f" [({key})]" if rng.random() < 0.5 else f" [{key}]"
            label = rng.choice(MULTIPLICITY_LABELS)
            label = f" {label}" if label else ""
            association_lines.append(
                f"{name}{qualifier} -->{label} {rng.choice(known)} : {visibility}{role}"
            )

    lines.extend(generalization_lines)
    lines.extend(association_lines)
    lines.append("@enduml")
    files = {"model.puml": "\n".join(lines) + "\n"}
    expect = {
        "classes": len(names),
        "generalizations": len(generalization_lines),
        "associations": len(association_lines),
        "elided_members": 0,
    }
    return Workspace(workload, files, list(names), expect,
                     _props(files, names, type_texts, depths, []))
