"""TikZ backend: prints a ``DiagramLayout`` as an equivalent picture in em
coordinates.

Node texts become \\node commands, arrows become \\draw commands with
labels riding midway; arrow tips beyond plain '->' assume the standard
arrows library.  TikZ places each label (``node[above]`` midway) and pads
an on-line one (``fill=white``) itself, so the printer reads only the node
centres, each path's clipped ends, and each label's text and side from the
path's arrow: it prints a full layout and an ends-only one alike.  An
ends-only layout is a full layout that placed no label and kept no box.
Styles the backend cannot express fall back to a solid arrow with a
warning.  Coordinates are exact decimals unless the render scale has a
prime other than 2 and 5 in its denominator; then they are rounded to six
places, with a warning.  What depends only on the scale is a pen: that
denominator, factored once, the class of a memo over it, and a label's
node by side, whose on-line padding scales with the figure, as one em
of layout written over that denominator.  The pen of the default scale
is made once, at import; a render at any other scale makes its own.  A
render formats each distinct coordinate once, in one memo for both axes
(``E[v]``), whose miss is one Python call, and keeps the ``\\draw`` of
each raw style token, read from a module table by style, so a common
arrow is one f-string over dict lookups, with no Python call.  Each
memo lives for one render.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .geometry import DecimalBase, ScaleConfig, decimal_base, memo_class
from .ir import LabelSide
from .layout import ABOVE, BELOW, NONE, ON_LINE, QUANTUM, DiagramLayout
from .styles import STYLES, StyleRows, style_of

# the \\draw up to its first point, by style row
_DRAW = {style: f"\\draw[{style.tikz}] (" for style in STYLES.values()}


def _pen(sn: int, sd: int) -> Tuple[DecimalBase, type, Dict[LabelSide, str]]:
    """What a render at scale ``sn/sd`` writes whatever its figure: the
    factored denominator of a coordinate in em and the class of a memo
    over it, and a label's node up to its text, by side."""
    base = decimal_base(100 * QUANTUM * sd)
    memo = memo_class(base)
    return base, memo, {
        ABOVE: " node[above] {$\\scriptstyle ",
        BELOW: " node[below] {$\\scriptstyle ",
        # an on-line label's knockout padding, 1pt times the scale: the
        # scale is what one em of layout (100 QUANTUM units) prints as
        ON_LINE: f" node[fill=white, inner sep={memo(base, sn)[100 * QUANTUM]}pt]"
                 " {$\\scriptstyle ",
    }


# the pen of the default scale, made once
_DEFAULT_PEN = _pen(1, 1)


def render_tikz(
    lay: DiagramLayout,
    cfg: ScaleConfig,
    warnings: Optional[List[str]] = None,
) -> str:
    """Print a laid-out figure at the scale of ``cfg``, its IR's scale."""
    sn, sd = cfg.scale.as_integer_ratio()
    base, memo, label_node = _DEFAULT_PEN if sn == sd == 1 else _pen(sn, sd)
    # each distinct coordinate of this render, v layout units in em,
    # formatted once
    E = memo(base, sn)
    if warnings is not None and not base[1]:
        warnings.append(f"scale {cfg.scale} has no exact decimal em; coordinates "
                        "are rounded to six places")
    # the \\draw of each raw style token
    draw = StyleRows(lambda raw: _DRAW[style_of(raw, "TikZ", warnings)])

    lines: List[str] = ["\\begin{tikzpicture}[line cap=round]"]
    for node, (cx, cy) in lay.nodes:
        if node.text:
            lines.append(f"\\node at ({E[cx]}em,{E[cy]}em) {{${node.text}$}};")
    # TikZ places each label midway itself: its text and side are the arrow's
    for (sx, sy), (ex, ey), arrow, _, _ in lay.paths:
        label, side = arrow.label, arrow.side
        label_nodes = f"{label_node[side]}{label}$}}" if label and side is not NONE else ""
        if arrow.label2:   # an inline arrow's second label, below
            label_nodes += f"{label_node[BELOW]}{arrow.label2}$}}"
        lines.append(f"{draw[arrow.style]}{E[sx]}em,{E[sy]}em) --{label_nodes}"
                     f" ({E[ex]}em,{E[ey]}em);")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
