"""The character-by-character label splitter, kept as a reference.

``fileio._split_top_level`` cuts a line at its quotes and splits only the
stretches outside them.  The function below is the earlier splitter, which
walks the text one character at a time; the tests check that the two give
the same parts, and raise the same ValueError, on the same text.
"""


def split_top_level_by_character(text, sep=","):
    parts = []
    depth = 0
    quoted = False
    current = []
    for ch in text:
        if ch == '"':
            quoted = not quoted
            current.append(ch)
        elif not quoted and ch == "(":
            depth += 1
            current.append(ch)
        elif not quoted and ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parenthesis")
            current.append(ch)
        elif not quoted and depth == 0 and ch == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if quoted or depth != 0:
        raise ValueError("unbalanced quote or parenthesis")
    parts.append("".join(current))
    return [p.strip() for p in parts]
