"""The label splitter of the file formats against its earlier version.

``fileio._split_top_level`` splits a face line at the commas outside
quotes and parentheses without walking it character by character.  These
tests compare it with the character walk it replaced
(``reference_fileio.split_top_level_by_character``) on every line of every
written fixture, on a written sd(s2 x s2), on the malformed inputs of the
file tests, and on seeded random text, errors included.
"""

import random

from cohodist import fileio
from cohodist.complexes import barycentric_subdivision
from cohodist.fixtures import cover_names, fixture_complex, fixture_cover, fixture_names

from .reference_fileio import split_top_level_by_character

# the malformed files of test_fileio_cli.py (TestBadInputFiles and the
# label and line-number tests), line by line, and unbalanced labels
MALFORMED = [
    "piece A\n0,1,2\npiece B\n0,1,9\n",
    "0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n3 -> 0\n",
    "0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n7 -> 0\n",
    "order: 0 1 2\norder: 2 1 0\n0,1,2\n",
    "0,1\n0,((\n",
    '\na b\n"unclosed\n',
    '0,1)\n)(,0\n"(0,1)",(2\n"a,"b"\n(0,"1)",2)\n"(0,(1,2)),3",4\n',
]


def outcome(split, text):
    try:
        return split(text)
    except ValueError as e:
        return ("ValueError", str(e))


def assert_same(lines):
    for line in lines:
        assert (outcome(fileio._split_top_level, line)
                == outcome(split_top_level_by_character, line)), line


def test_written_fixtures():
    texts = [fileio.complex_to_text(fixture_complex(name)) for name in fixture_names()]
    texts += [fileio.cover_to_text(fixture_cover(name)) for name in cover_names()]
    for text in texts:
        assert_same(text.splitlines())


def test_written_subdivision_of_s2_x_s2():
    sd, _ = barycentric_subdivision(fixture_complex("s2xs2"))
    lines = fileio.complex_to_text(sd).splitlines()
    assert len(lines) > 10000
    assert_same(lines)
    # the quoted labels are split again when they are parsed
    assert_same(token[1:-1] for token in lines[0].split()[1:])


def test_malformed_inputs():
    lines = [line for text in MALFORMED for line in text.splitlines()]
    assert_same(lines)
    errors = [line for line in lines
              if isinstance(outcome(fileio._split_top_level, line), tuple)]
    assert len(errors) >= 6


def test_random_text():
    rng = random.Random(12)
    raised = 0
    for _ in range(20000):
        text = "".join(rng.choice('",() a1,,') for _ in range(rng.randint(0, 16)))
        assert_same([text])
        raised += isinstance(outcome(fileio._split_top_level, text), tuple)
    assert 1000 < raised < 19000
