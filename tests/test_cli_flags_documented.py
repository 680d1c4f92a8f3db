"""Every flag the server and router CLIs accept is named in the README,
and no flag they dropped still is."""

import os
import re

import pytest

from repro.serving.frontend.config import build_serving_parser
from repro.serving.frontend.router import build_router_parser

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
REMOVED = ["--record", "--max-wait-ms", "--kernel"]


def flags(parser):
    return [flag for action in parser._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"]


@pytest.mark.parametrize("parser", [build_serving_parser, build_router_parser])
def test_every_flag_is_documented(parser):
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    named = set(re.findall(r"`(--[a-z-]+)(?![a-z-])", text))
    assert [flag for flag in flags(parser()) if flag not in named] == []
    assert [flag for flag in REMOVED if flag in text] == []
