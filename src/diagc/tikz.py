"""TikZ backend: prints a ``DiagramLayout`` as an equivalent picture in em
coordinates.

Node texts become \\node commands, arrows become \\draw commands with
labels riding midway; arrow tips beyond plain '->' assume the standard
arrows library.  TikZ places each label (``node[above]`` midway) and pads
an on-line one (``fill=white``) itself, so the printer reads only the
node centres, each path's clipped ends, and each label's text and side
from the path's arrow: it prints an ends-only layout, which has no label
centres, knockouts or box, and a full one alike.  Styles the backend
cannot express fall back to a solid arrow with a warning.  Coordinates
are exact decimals unless the render scale has a prime other than 2 and
5 in its denominator; then they are rounded to six places, with a
warning.  A render factors that denominator once and formats each
distinct coordinate once, in one ``Decimals`` memo for both axes
(``E[v]``), whose miss is one Python call; it keeps the ``\\draw``
options of each raw style token in one row, so a common arrow is one
f-string over dict lookups, with no Python call.  Each memo lives for
one render.  The padding of an on-line label scales with the figure: it
is one em of layout read from ``E``.
"""
from __future__ import annotations

from typing import List, Optional

from .geometry import Decimals, ScaleConfig, decimal_base
from .layout import ABOVE, BELOW, NONE, ON_LINE, QUANTUM, DiagramLayout
from .styles import StyleRows, style_of


def render_tikz(
    lay: DiagramLayout,
    cfg: ScaleConfig,
    warnings: Optional[List[str]] = None,
) -> str:
    """Print a laid-out figure at the scale of ``cfg``, its IR's scale."""
    sn, sd = cfg.scale.as_integer_ratio()
    base = decimal_base(100 * QUANTUM * sd)
    # each distinct coordinate of this render, v layout units in em,
    # formatted once
    E = Decimals(base, sn)
    # a label's node up to its text, by side
    label_node = {
        ABOVE: " node[above] {$\\scriptstyle ",
        BELOW: " node[below] {$\\scriptstyle ",
        # an on-line label's knockout padding, 1pt times the scale: the
        # scale is what one em of layout (100 QUANTUM units) prints as
        ON_LINE: f" node[fill=white, inner sep={E[100 * QUANTUM]}pt]"
                           " {$\\scriptstyle ",
    }
    if warnings is not None and not base[1]:
        warnings.append(f"scale {cfg.scale} has no exact decimal em; coordinates "
                        "are rounded to six places")
    # the \\draw of each raw style token
    draw = StyleRows(lambda raw: f"\\draw[{style_of(raw, 'TikZ', warnings).tikz}] (")

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
