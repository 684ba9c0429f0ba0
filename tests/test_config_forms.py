"""The config reader's accepted and rejected forms, pinned text by text.

Each text maps to an exact ``ConfigData`` or to the exact text of its
``ConfigError``.  The forms include the ones Python's ``int`` is lenient
about (underscores, a sign, non-ASCII digits, surrounding whitespace), so a
faster reader cannot widen or narrow what a file may say.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from anticycle.config_io import ConfigData, ConfigError, parse_config
from anticycle.pic0 import PicZeroElement, PicZeroFamily

BAD_EMPTY = "bad integer in list: invalid literal for int() with base 10: ''"

ACCEPTED = [
    ("selfints = [ -2 , -2 ]\n", ConfigData(self_ints=(-2, -2))),
    ("selfints = [1_0, -2]\n", ConfigData(self_ints=(10, -2))),
    ("selfints = [+3, -2]\n", ConfigData(self_ints=(3, -2))),
    ("selfints = [٢, -2]\n", ConfigData(self_ints=(2, -2))),
    ("n = 1_0\nselfints = [-2]\n", ConfigData(n=10, self_ints=(-2,))),
    ("n = +3\nselfints = [-2]\n", ConfigData(n=3, self_ints=(-2,))),
    ("n = ٥\nselfints=[-2]\n", ConfigData(n=5, self_ints=(-2,))),
    (
        "n\t=\t5\nselfints\t=\t[\t-2,\t-2\t]\n",
        ConfigData(n=5, self_ints=(-2, -2)),
    ),
    (
        "n = 5  # five\nselfints = [-2, -2] # two\n",
        ConfigData(n=5, self_ints=(-2, -2)),
    ),
    ("n = 5\rselfints = [-2, -2]\r\n", ConfigData(n=5, self_ints=(-2, -2))),
    ("n = 5\x85selfints = [-2, -2]\x85", ConfigData(n=5, self_ints=(-2, -2))),
    (
        "resolution = [0,1]\nselfints=[-2]\n",
        ConfigData(self_ints=(-2,), resolution=(0, 1)),
    ),
    (
        "base = cycle\nn = 4\nk = 1\nself = [-2]\nfamily = const unity 1/4\n",
        ConfigData(
            base="cycle",
            n=4,
            k=1,
            half_self_ints=(-2,),
            family=PicZeroFamily.constant(PicZeroElement(Fraction(1), Fraction(1, 4))),
        ),
    ),
    (
        "base = elliptic\nn = 5\nfamily = const modulus 3/2 angle 1/3\n",
        ConfigData(
            base="elliptic",
            n=5,
            family=PicZeroFamily.constant(
                PicZeroElement(Fraction(3, 2), Fraction(1, 3))
            ),
        ),
    ),
    (
        "selfints = [-2]\nfamily = nonconstant\n",
        ConfigData(self_ints=(-2,), family=PicZeroFamily.nonconstant()),
    ),
]

REJECTED = [
    ("selfints = []\n", "line 1: empty list"),
    ("selfints = [ ]\n", "line 1: empty list"),
    ("selfints = [1,,2]\n", f"line 1: {BAD_EMPTY}"),
    ("selfints = [1,2,]\n", f"line 1: {BAD_EMPTY}"),
    ("selfints = [1, ,2]\n", f"line 1: {BAD_EMPTY}"),
    (
        "selfints = [1 2]\n",
        "line 1: bad integer in list: invalid literal for int() with base 10: '1 2'",
    ),
    (
        "selfints = [1_]\n",
        "line 1: bad integer in list: invalid literal for int() with base 10: '1_'",
    ),
    (
        "selfints = [a, 2]\n",
        "line 1: bad integer in list: invalid literal for int() with base 10: 'a'",
    ),
    ("selfints = -2, -2\n", "line 1: expected a bracketed list, got '-2, -2'"),
    ("n = five\nselfints=[-2]\n", "line 1: n must be an integer"),
    ("k = 1.5\nself=[-2]\n", "line 1: k must be an integer"),
    ("n = 5\x85selfints = [-2, -2]\x85n = 4\n", "line 3: duplicate key 'n'"),
    ("# head\nn = 4\nselfints = [-2]\nn = 5\n", "line 4: duplicate key 'n'"),
    ("selfints = [-2]\nwidth = 7\n", "line 2: unknown key 'width'"),
    ("selfints = [-2]\ngarbage\n", "line 2: expected 'key = value'"),
    ("selfints=[-2]\nbase = Cycle\n", "line 2: base must be 'cycle' or 'elliptic'"),
    ("selfints=[-2]\nfamily = const unity 1/0\n", "line 2: bad rational '1/0'"),
    ("selfints=[-2]\nfamily = const unity 1e5\n", "line 2: bad rational '1e5'"),
    (
        "selfints=[-2]\nfamily = const modulus 1E2 angle 0\n",
        "line 2: bad rational '1E2'",
    ),
    (
        "selfints=[-2]\nfamily = const modulus 0 angle 1/2\n",
        "line 2: modulus must be positive",
    ),
    ("selfints=[-2]\nfamily = constant\n", "line 2: unrecognized family 'constant'"),
    (
        "self = [-2]\nselfints = [-2, -2]\n",
        "exactly one of 'self' and 'selfints' may be given",
    ),
    ("n = 4\n", "one of 'self' and 'selfints' is required"),
]

#: Every whitespace character that does not also break a line.
INLINE_SPACE = [
    chr(c)
    for c in range(sys.maxunicode + 1)
    if chr(c).isspace() and len(f"a{chr(c)}b".splitlines()) == 1
]


@pytest.mark.parametrize("text, expected", ACCEPTED)
def test_accepted_form(text, expected):
    assert parse_config(text) == expected


@pytest.mark.parametrize("text, message", REJECTED)
def test_rejected_form(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


@pytest.mark.parametrize("space", INLINE_SPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_inline_whitespace_around_list_items(space):
    assert parse_config(f"selfints = [{space}-2{space},{space}3]\n") == ConfigData(
        self_ints=(-2, 3)
    )
    with pytest.raises(ConfigError) as info:
        parse_config(f"selfints = [1,{space},2]\n")
    assert str(info.value) == f"line 1: {BAD_EMPTY}"
