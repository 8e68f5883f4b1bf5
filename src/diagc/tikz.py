"""TikZ backend: prints a ``DiagramLayout`` as an equivalent picture in em
coordinates.

Node texts become \\node commands, arrows become \\draw commands with
labels riding midway; arrow tips beyond plain '->' assume the standard
arrows library.  Styles the backend cannot express fall back to a solid
arrow with a warning.  Coordinates are exact decimals unless the render
scale has a prime other than 2 and 5 in its denominator; then they are
rounded to six places, with a warning.  A render formats each distinct
number once.  The padding of an on-line label scales with the figure.
"""
from __future__ import annotations

from functools import cache
from typing import List, Optional

from .geometry import ScaleConfig, decimal_formatter
from .ir import LabelSide
from .layout import QUANTUM, DiagramLayout
from .styles import style_of


def render_tikz(
    lay: DiagramLayout,
    cfg: ScaleConfig,
    warnings: Optional[List[str]] = None,
) -> str:
    """Print a laid-out figure at the scale of ``cfg``, its IR's scale."""
    sn, sd = cfg.scale.as_integer_ratio()
    # v * sn -> v layout units in em, memoized for this render
    em, exact = decimal_formatter(100 * QUANTUM * sd)
    em = cache(em)
    side_option = {
        LabelSide.ABOVE: "above",
        LabelSide.BELOW: "below",
        # an on-line label's knockout padding, 1pt times the scale: the
        # scale is what one em of layout (100 QUANTUM units) prints as
        LabelSide.ON_LINE: f"fill=white, inner sep={em(100 * QUANTUM * sn)}pt",
    }
    if warnings is not None and not exact:
        warnings.append(f"scale {cfg.scale} has no exact decimal em; coordinates "
                        "are rounded to six places")

    def at(p) -> str:
        return f"({em(p[0] * sn)}em,{em(p[1] * sn)}em)"

    lines: List[str] = ["\\begin{tikzpicture}[line cap=round]"]
    for placed in lay.nodes:
        if not placed.node.text:
            continue
        lines.append(f"\\node at {at(placed.center)} {{${placed.node.text}$}};")
    for path in lay.paths:
        options = style_of(path.arrow.style, "TikZ", warnings).tikz
        label_nodes = ""
        for label in path.labels:
            label_nodes += (
                f" node[{side_option[label.side]}] {{$\\scriptstyle {label.text}$}}"
            )
        lines.append(
            f"\\draw[{options}] {at(path.start)} --{label_nodes} {at(path.end)};"
        )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
