#!/usr/bin/env python3
"""Check hfsim's config reader against configparser on random hostile texts.

    python3 tests/reader_parity.py [COUNT] [SEED]

Each text is read by `hfsim.config._read_sections` and by configparser set
up with hfsim's dialect (`oracle_sections`). Both must reject it, or both
must accept it with the same sections, keys, values and order. The script
needs only the standard library, so every supported Python can run it;
`tests/test_config.py` checks the same with hypothesis. It prints how many
texts each side accepted and exits 1 at the first text they read apart.
"""

from __future__ import annotations

import configparser
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hfsim.config import _read_sections  # noqa: E402
from hfsim.errors import ConfigFileError  # noqa: E402

# what hostile lines are made of: an indent, including whitespace that
# str.strip() removes, then up to five pieces of the dialect's own syntax
INDENTS = ("", "", "", " ", "  ", "\t", "\x0c", "\x1c")
PIECES = ("[", "]", "=", "#", ";", " ", "\t", "\r", "\x0c", "\x1c", "a", "b", "[a]", "[b]",
          "[DEFAULT]", "k", "k =", "j=", " = v", " # note", "#x", ";x")


def oracle_sections(text: str):
    """configparser's reading of `text` as {section: {key: value}}, or None if it rejects it."""
    parser = configparser.ConfigParser(
        interpolation=None,
        delimiters=("=",),
        comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#",),
        default_section="",  # no header can name it, so [DEFAULT] is ordinary
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(parser.items(name, raw=True)) for name in parser.sections()}


def reader_sections(text: str):
    """`_read_sections(text)`, or None if it rejects the text."""
    try:
        return _read_sections(text)
    except ConfigFileError:
        return None


def ordered(sections):
    """The sections and their keys as lists, so that comparing them compares order too."""
    return None if sections is None else [(name, list(keys.items()))
                                          for name, keys in sections.items()]


def random_line(rng: random.Random) -> str:
    return rng.choice(INDENTS) + "".join(rng.choice(PIECES) for _ in range(rng.randrange(6)))


def random_text(rng: random.Random) -> str:
    """Up to 12 lines, after a header half of the time, so that many texts are accepted."""
    lines = [random_line(rng) for _ in range(rng.randrange(13))]
    return rng.choice(("", "[s]\n")) + "\n".join(lines)


def main(argv) -> int:
    count = int(argv[1]) if len(argv) > 1 else 100_000
    rng = random.Random(int(argv[2]) if len(argv) > 2 else 0)
    accepted = 0
    for _ in range(count):
        text = random_text(rng)
        ours, theirs = ordered(reader_sections(text)), ordered(oracle_sections(text))
        if ours != theirs:
            print(f"reader and configparser differ on {text!r}:\n  {ours}\n  {theirs}")
            return 1
        accepted += ours is not None
    print(f"Python {sys.version.split()[0]}: {count} texts, {accepted} accepted by both, "
          f"{count - accepted} rejected by both")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
