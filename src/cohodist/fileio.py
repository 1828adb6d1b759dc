"""Line-oriented text formats for complexes, covers and maps.

Complex files hold one maximal face per line, vertices comma-separated,
with ``#`` comments and an optional ``order:`` header fixing the vertex
order.  Pair labels (products) are serialized as quoted ``"a,b"`` tokens;
nested tuple labels (barycenters of product simplices) use parentheses
inside the quotes.  Cover files group face lines under ``piece <name>``
headers; map files hold ``u -> v`` lines.  The writers refuse, with
:class:`errors.UnwritableLabelError`, a label or piece name that their
reader would not give back as itself.  The readers raise
:class:`errors.ParseError` with the line of a label they cannot read,
one nested past the interpreter's recursion limit among them.
"""

import functools
from itertools import accumulate

from .complexes import (
    Cover,
    SimplicialComplex,
    SimplicialMap,
    Subcomplex,
    from_maximal_faces,
)
from .errors import CohodistError, ParseError, UnwritableLabelError


# ---------------------------------------------------------------------------
# labels


def _label_token(label, top=True) -> str:
    if isinstance(label, tuple):
        inner = ",".join(_label_token(x, top=False) for x in label)
        return f'"{inner}"' if top else f"({inner})"
    return str(label)


def _token(label, reserved=("#",)) -> str:
    """The label's token, refused with :class:`UnwritableLabelError` unless
    the readers give the label back from it: :func:`parse_label` must,
    and the token must hold no whitespace, which ends a token or a line,
    and no ``reserved`` text, such as the ``#`` that starts a comment."""
    token = _label_token(label)
    try:
        if (token.split() == [token] and not any(r in token for r in reserved)
                and parse_label(token) == label):
            return token
    except ValueError:
        pass
    raise UnwritableLabelError(f"the label {label!r} would not read back")


def _split_top_level(text, sep=","):
    """The parts of ``text`` between the ``sep`` characters that are outside
    quotes and parentheses, each stripped.

    The text is cut at its quotes first, so a quoted label is taken whole
    however many commas it holds; only the stretches outside quotes are
    split at ``sep``, and those with parentheses are rejoined where a
    separator falls inside them.  Unbalanced quotes or parentheses raise
    ValueError.
    """
    stretches = text.split('"')
    parts = []
    current = []  # the pieces of the part being read
    depth = 0
    for k, stretch in enumerate(stretches):
        if k % 2:  # inside quotes
            current.append(f'"{stretch}"')
            continue
        if depth or "(" in stretch or ")" in stretch:
            pieces, depth = _split_outside_parens(stretch, sep, depth)
        else:
            pieces = stretch.split(sep)
        current.append(pieces[0])
        for piece in pieces[1:]:
            parts.append("".join(current))
            current = [piece]
    if depth or len(stretches) % 2 == 0:  # an odd number of quotes
        raise ValueError("unbalanced quote or parenthesis")
    parts.append("".join(current))
    return [p.strip() for p in parts]


_PAREN_STEP = {"(": 1, ")": -1}


def _split_outside_parens(stretch, sep, depth):
    """``stretch.split(sep)``, except at separators inside parentheses,
    ``depth`` of them open before ``stretch``; returns the pieces and the
    depth after ``stretch``."""
    pieces = []
    for i, piece in enumerate(stretch.split(sep)):
        if i and depth:
            pieces[-1] += sep + piece
        else:
            pieces.append(piece)
        closes = piece.count(")")
        if closes > depth:  # the depth may dip below zero inside the piece
            steps = [_PAREN_STEP[ch] for ch in piece if ch in _PAREN_STEP]
            if depth + min(accumulate(steps)) < 0:
                raise ValueError("unbalanced parenthesis")
        depth += piece.count("(") - closes
    return pieces, depth


def parse_label(token: str):
    """Inverse of the serializer: int, bare string, quoted or (...) tuple.

    A token is an int only when it is one in canonical form, as ``str``
    writes it: ``01``, ``+1``, ``1_0``, ``-0`` and non-ASCII digits are
    bare strings, so distinct tokens are distinct labels.
    """
    token = token.strip()
    if not token:
        raise ValueError("empty label")
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return tuple(parse_label(p) for p in _split_top_level(token[1:-1]))
    if token.startswith("(") and token.endswith(")"):
        return tuple(parse_label(p) for p in _split_top_level(token[1:-1]))
    try:
        if str(value := int(token)) == token:
            return value
    except ValueError:
        pass
    if any(ch in token for ch in ' \t",()'):
        raise ValueError(f"bad label {token!r}")
    return token


def _header(line, keyword):
    """The rest of the line when its first word is ``keyword``, else None."""
    words = line.split(None, 1)
    if words[0] != keyword:
        return None
    return words[1] if len(words) > 1 else ""


def _iter_content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# ---------------------------------------------------------------------------
# complexes


def complex_to_text(K: SimplicialComplex, comment: str = "") -> str:
    tokens = {v: _token(v) for v in K.vertices}  # each label checked once
    lines = [f"# {line}" for line in comment.splitlines()]
    lines.append("order: " + " ".join(tokens.values()))
    lines += (",".join(map(tokens.__getitem__, f)) for f in K.maximal_faces)
    return "\n".join(lines) + "\n"


def complex_from_text(text: str) -> SimplicialComplex:
    order = None
    faces = []
    label = functools.cache(parse_label)  # each distinct token once
    for lineno, line in _iter_content_lines(text):
        header = _header(line, "order:")
        if header is not None:
            if faces:
                raise ParseError("order header must precede faces", lineno)
            if order is not None:
                raise ParseError("order header given twice", lineno)
            try:
                order = [label(tok) for tok in header.split()]
            except ValueError as e:
                raise ParseError(str(e), lineno)
            except RecursionError:
                raise ParseError("label nested too deeply", lineno)
            continue
        try:
            faces.append([label(tok) for tok in _split_top_level(line)])
        except ValueError as e:
            raise ParseError(str(e), lineno)
        except RecursionError:
            raise ParseError("label nested too deeply", lineno)
    if not faces:
        raise ParseError("no faces found", None)
    return from_maximal_faces(faces, order=order)


def _write(path, text: str):
    # the writers build the text first, so a refused label leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            # a leading byte-order mark is no label; the "utf-8-sig" codec
            # would strip it too, but costs a module import per process
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text (byte {e.start}: {e.reason})")


def write_complex(K: SimplicialComplex, path, comment: str = ""):
    _write(path, complex_to_text(K, comment))


def read_complex(path) -> SimplicialComplex:
    return complex_from_text(_read(path))


# ---------------------------------------------------------------------------
# covers


def cover_to_text(cover: Cover) -> str:
    token = functools.cache(_token)
    lines = []
    for i, piece in enumerate(cover.pieces):
        name = piece.name or f"K{i}"
        lines.append(f"piece {name}")
        if [_header(ln, "piece") for _, ln in _iter_content_lines(lines[-1])] != [name]:
            raise UnwritableLabelError(f"the piece name {name!r} would not read back")
        lines += (",".join(map(token, f)) for f in piece.complex.maximal_faces)
    return "\n".join(lines) + "\n"


def cover_from_text(text: str, parent: SimplicialComplex) -> Cover:
    pieces = []
    name = None
    faces = []

    def flush(lineno):
        nonlocal name, faces
        if name is not None:
            if not faces:
                raise ParseError(f"piece {name!r} has no faces", lineno)
            pieces.append(Subcomplex.spanned_by(parent, faces, name=name))
        name, faces = None, []

    last = None
    label = functools.cache(parse_label)
    for lineno, line in _iter_content_lines(text):
        last = lineno
        header = _header(line, "piece")
        if header is not None:
            flush(lineno)
            name = header or f"K{len(pieces)}"
            if any(piece.name == name for piece in pieces):
                raise ParseError(f"piece name {name!r} given twice", lineno)
            continue
        if name is None:
            raise ParseError("face line before any 'piece' header", lineno)
        try:
            face = [label(tok) for tok in _split_top_level(line)]
        except ValueError as e:
            raise ParseError(str(e), lineno)
        except RecursionError:
            raise ParseError("label nested too deeply", lineno)
        for v in face:
            if (v,) not in parent:
                raise ParseError(f"{v!r} is not a vertex of the complex", lineno)
        if face not in parent:
            raise ParseError(f"{tuple(face)!r} is not a simplex of the complex", lineno)
        faces.append(face)
    flush(last)
    if not pieces:
        raise ParseError("no pieces found", None)
    return Cover(parent, pieces)


def write_cover(cover: Cover, path):
    _write(path, cover_to_text(cover))


def read_cover(path, parent: SimplicialComplex) -> Cover:
    return cover_from_text(_read(path), parent)


# ---------------------------------------------------------------------------
# maps


def map_to_text(phi: SimplicialMap) -> str:
    # a source label must not hold the arrow the reader splits at
    image = functools.cache(_token)
    lines = [f"{_token(v, ('#', '->'))} -> {image(phi.assignment[v])}"
             for v in phi.source.vertices]
    return "\n".join(lines) + "\n"


def map_from_text(text: str, source: SimplicialComplex,
                  target: SimplicialComplex) -> SimplicialMap:
    assignment = {}
    label = functools.cache(parse_label)
    for lineno, line in _iter_content_lines(text):
        if "->" not in line:
            raise ParseError("expected 'u -> v'", lineno)
        left, right = line.split("->", 1)
        try:
            u, v = label(left), label(right)
        except ValueError as e:
            raise ParseError(str(e), lineno)
        except RecursionError:
            raise ParseError("label nested too deeply", lineno)
        if (u,) not in source:
            raise ParseError(f"{u!r} is not a vertex of the source complex", lineno)
        if u in assignment:
            raise ParseError(f"vertex {u!r} is mapped twice", lineno)
        assignment[u] = v
    try:
        return SimplicialMap(source, target, assignment)
    except CohodistError as e:
        raise ParseError(str(e), None)


def write_map(phi: SimplicialMap, path):
    _write(path, map_to_text(phi))


def read_map(path, source, target) -> SimplicialMap:
    return map_from_text(_read(path), source, target)
