"""The field walk: the reference model of the IR reader in ``diagc.irtext``.

It reads a line field by field against a row of ``irtext._RECORDS``:
the field's prefix, then its value up to the next space, which a reader
takes only if ``str`` of the value gives the spelling back, or a braced
text field to where ``lexer.group_end`` says.  Each constant line is a
keyword and a number that must be the language's constant.  The
patterns that ``parse_ir`` compiles from the table must accept exactly
the lines it accepts, and read the same records.  The walk reads one
line at a time, in order, and its IRSyntaxError keeps the line it
rejects as ``line``: the line ``parse_ir``'s error must name.
"""
from fractions import Fraction

from diagc.geometry import EX_RATIO, LABEL_SCALE, OBJECT_MARGIN, Point, ScaleConfig
from diagc.ir import Arrow, DiagramIR, Node
from diagc.irtext import (_ARROW, _END, _FRACTION, _HEADER, _INT, _NODE, _POSITIVE, _SCALES,
                          IRSyntaxError)
from diagc.lexer import group_end


def _canonical(parse):
    """A reader that takes only the spelling ``str`` gives the value."""
    def read(token):
        value = parse(token)
        if str(value) != token:  # int() also takes "+1", " 1", "0_1", other digits
            raise ValueError
        return value
    return read


def _positive(read):
    """A number reader that takes no value below 1: in a canonical
    spelling a negative value starts with '-' and zero is '0'."""
    def checked(token):
        if token[:1] == "-" or token == "0":
            raise ValueError
        return read(token)
    return checked


_READ_INT = _canonical(int)
_READ_FRACTION = _canonical(lambda t: Fraction(*map(int, t.split("/", 1))))
_NUMBERS = {  # by pattern: a kind's pattern is its own
    _INT.pattern: _READ_INT,
    _FRACTION.pattern: _READ_FRACTION,
    _POSITIVE.pattern: _positive(_READ_FRACTION),
}
# the lines after the scale lines: a keyword and the one value it may hold
_CONSTANTS = (("ex-ratio", EX_RATIO), ("label-scale", LABEL_SCALE),
              ("object-margin", OBJECT_MARGIN))


def _rejected(message, line):
    """IRSyntaxError for a line the walk rejects, which it keeps."""
    error = IRSyntaxError(message)
    error.line = line
    return error


def _reader(kind):
    """spelling -> value, raising on any spelling but the canonical one;
    None for braced text.  A word or a flag is a lookup in its table."""
    if kind.pattern is None:
        return None
    return _NUMBERS.get(kind.pattern, kind.read)


def read_fields(row, line):
    """attribute -> value of a line ``row.lines`` could have written;
    IRSyntaxError naming the line for any other."""
    values = []
    pos = 0
    for prefix, read in zip(row.prefixes, map(_reader, row.kinds)):
        if not line.startswith(prefix, pos):
            raise _rejected(f"expected {prefix.strip()!r} in {line!r}", line)
        pos += len(prefix)
        if read is None:
            end = group_end(line, pos)
            if end < 0:
                raise _rejected(f"unbalanced braces in {line!r}", line)
            values.append(line[pos + 1:end - 1])
        else:
            end = line.find(" ", pos)
            if end < 0:
                end = len(line)
            try:
                values.append(read(line[pos:end]))
            except (ValueError, KeyError, ZeroDivisionError):
                raise _rejected(f"bad value {line[pos:end]!r} in {line!r}", line) from None
        pos = end
    if pos != len(line):
        raise _rejected(f"trailing text in {line!r}", line)
    fields = dict(zip(row.attrs, values))
    points = dict.fromkeys(a.partition(".")[0] for a in row.attrs if "." in a)
    for name in points:
        fields[name] = Point(fields.pop(name + ".x"), fields.pop(name + ".y"))
    return fields


def parse_by_fields(row, line):
    """What ``row.parse`` reads from a line: a node, an arrow or a scale
    line's value."""
    fields = read_fields(row, line)
    if row is _NODE:
        return Node(**fields)
    if row is _ARROW:
        return Arrow(**fields)
    (value,) = fields.values()
    return value


def parse_ir_by_fields(text):
    """``parse_ir`` by the field walk."""
    lines = text.split("\n")
    if lines[0] != _HEADER:
        raise IRSyntaxError("missing IR header")
    if lines[-2:] != [_END, ""]:
        raise IRSyntaxError(f"missing end marker: the last line must be {_END!r}")
    head, body = len(_SCALES) + len(_CONSTANTS), lines[1:-2]
    if len(body) < head:
        raise IRSyntaxError("missing scale or constant line")
    scale = {}
    for row, line in zip(_SCALES, body):
        scale.update(read_fields(row, line))
    for (keyword, value), line in zip(_CONSTANTS, body[len(_SCALES):]):
        word, space, spelling = line.partition(" ")
        try:
            read = _READ_FRACTION(spelling) if word == keyword and space else None
        except (ValueError, ZeroDivisionError):
            read = None
        if read != value:
            raise _rejected(f"{line!r} is not the {keyword} line", line)
    cfg = ScaleConfig(**scale)
    split = head
    while split < len(body) and body[split].startswith(_NODE.keyword + " "):
        split += 1
    return DiagramIR(tuple(Node(**read_fields(_NODE, line)) for line in body[head:split]),
                     tuple(Arrow(**read_fields(_ARROW, line)) for line in body[split:]), cfg)
