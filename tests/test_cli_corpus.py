"""The CLI corpus listing, rebuilt in fresh processes, against the committed
``tests/cli_corpus.txt``: every call's exit code and the sha256 of its
stdout, stderr and written files must be unchanged.

The committed listing was made on Linux with CPython 3.11 and NumPy 2.  On
another interpreter, NumPy or C library the test still runs, and a line that
differs fails it, named in the message with the platform that made it."""

import difflib
import platform
from pathlib import Path

import numpy as np

import cli_corpus

LISTING = Path(__file__).with_name("cli_corpus.txt")


def test_listing_matches_the_committed_file():
    want = LISTING.read_text().splitlines()
    got = list(cli_corpus.listing())
    diff = "\n".join(difflib.unified_diff(want, got, "tests/cli_corpus.txt", "rebuilt", lineterm="", n=0))
    here = (f"{platform.system()}, {platform.python_implementation()} {platform.python_version()}, "
            f"NumPy {np.__version__}")
    assert got == want, f"CLI outputs moved on {here}; rewrite the listing only for an intended change:\n{diff}"
