"""Canonical structured-text dump of a DiagramIR, and its parser.

Field order and integer formatting are fixed so output is byte-stable;
emit -> parse -> emit is a fixpoint.  Text fields sit in balanced
braces (their content is brace-balanced by construction) and are read
back by the shared lexical rule, so the brace of ``\\{`` or ``\\}``
never counts.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Dict, List

from .geometry import Point, ScaleConfig
from .ir import Arrow, DiagramIR, LabelSide, Node
from .lexer import tokens, top_level_end

_HEADER = "diagc-ir 1"
_SCALARS = {  # scale-line keyword -> value type
    "scale": Fraction,
    "em": Fraction,
    "ex-ratio": Fraction,
    "label-scale": Fraction,
    "object-margin": int,
}


def _frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def emit_ir(d: DiagramIR) -> str:
    cfg = d.scale
    lines = [
        _HEADER,
        f"scale {_frac(cfg.scale)}",
        f"em {_frac(cfg.em_size)}",
        f"ex-ratio {_frac(cfg.ex_ratio)}",
        f"label-scale {_frac(cfg.label_scale)}",
        f"object-margin {cfg.object_margin}",
    ]
    for n in sorted(d.nodes, key=lambda n: n.seq):
        lines.append(
            f"node seq={n.seq} x={n.anchor.x} y={n.anchor.y}"
            f" align={n.align or '-'} standalone={int(n.standalone)}"
            f" text={{{n.text}}}"
        )
    for a in sorted(d.arrows, key=lambda a: a.seq):
        lines.append(
            f"arrow seq={a.seq} kind={a.kind}"
            f" x1={a.start.x} y1={a.start.y} x2={a.end.x} y2={a.end.y}"
            f" style={{{a.style}}} label={{{a.label}}} side={a.side.value}"
            f" label2={{{a.label2}}} start={{{a.start_text}}} end={{{a.end_text}}}"
            f" offset={_frac(a.offset_pt)} lscale={_frac(a.local_scale)}"
            f" group={a.group}"
        )
    lines.append("end")
    return "\n".join(lines) + "\n"


class IRSyntaxError(ValueError):
    pass


def _parse_kv(line: str) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    toks = tokens(line, comments=False)
    # a "{" right after "=" is never part of a longer token, so it starts one
    token_at = dict(zip(accumulate(map(len, toks), initial=0), range(len(toks))))
    i, n = 0, len(line)
    while i < n:
        if line[i] == " ":
            i += 1
            continue
        eq = line.find("=", i)
        if eq < 0:
            raise IRSyntaxError("malformed field")
        key = line[i:eq]
        i = eq + 1
        if line.startswith("{", i):
            k = token_at[i]
            end = top_level_end(toks, k + 1, "")
            if end == len(toks):
                raise IRSyntaxError("unbalanced braces")
            fields[key] = "".join(toks[k + 1:end])
            i += len(fields[key]) + 2
        else:
            j = line.find(" ", i)
            if j < 0:
                j = n
            fields[key] = line[i:j]
            i = j
    return fields


def _node(kv: Dict[str, str]) -> Node:
    return Node(
        Point(int(kv["x"]), int(kv["y"])),
        kv["text"],
        int(kv["seq"]),
        align="" if kv["align"] == "-" else kv["align"],
        standalone=bool(int(kv["standalone"])),
    )


def _arrow(kv: Dict[str, str]) -> Arrow:
    return Arrow(
        start=Point(int(kv["x1"]), int(kv["y1"])),
        end=Point(int(kv["x2"]), int(kv["y2"])),
        style=kv["style"],
        label=kv["label"],
        side=LabelSide(kv["side"]),
        seq=int(kv["seq"]),
        kind=kv["kind"],
        start_text=kv["start"],
        end_text=kv["end"],
        label2=kv["label2"],
        offset_pt=Fraction(kv["offset"]),
        local_scale=Fraction(kv["lscale"]),
        group=int(kv["group"]),
    )


def parse_ir(text: str) -> DiagramIR:
    """Read an IR dump back; any malformed line raises IRSyntaxError naming it."""
    # only "\n" ends a line: emit_ir writes text fields verbatim, and they
    # may hold other line separators ("\x0c", "\x85", "\u2028")
    lines = text.split("\n")
    if not lines or lines[0] != _HEADER:
        raise IRSyntaxError("missing IR header")
    scalars: Dict[str, object] = {}
    nodes: List[Node] = []
    arrows: List[Arrow] = []
    ended = False
    for line in lines[1:]:
        if not line.strip():
            continue
        if ended:
            raise IRSyntaxError("content after end marker")
        if line == "end":
            ended = True
            continue
        kind, _, rest = line.partition(" ")
        try:
            if kind in _SCALARS:
                scalars[kind] = _SCALARS[kind](rest.strip())
            elif kind == "node":
                nodes.append(_node(_parse_kv(rest)))
            elif kind == "arrow":
                arrows.append(_arrow(_parse_kv(rest)))
            else:
                raise IRSyntaxError("unknown IR line")
        except KeyError as exc:
            raise IRSyntaxError(f"missing field {exc} in {line!r}") from None
        except (ValueError, ZeroDivisionError) as exc:  # IRSyntaxError included
            raise IRSyntaxError(f"{exc} in {line!r}") from None
    if not ended:
        raise IRSyntaxError("missing end marker")
    for kind in _SCALARS:
        if kind not in scalars:
            raise IRSyntaxError(f"missing {kind!r} line")
    try:
        cfg = ScaleConfig(
            scale=scalars["scale"],
            em_size=scalars["em"],
            ex_ratio=scalars["ex-ratio"],
            label_scale=scalars["label-scale"],
            object_margin=scalars["object-margin"],
        )
    except ValueError as exc:
        raise IRSyntaxError(f"{exc} in the scale lines") from None
    return DiagramIR(tuple(nodes), tuple(arrows), cfg)
