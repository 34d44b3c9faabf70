"""Count the code lines of Python sources: the physical lines that hold a
token other than a comment or a docstring, so blank lines, comments and
docstrings are left out.  A docstring here is any string literal that makes
a statement on its own.

    python tools/count_code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py``; the default is the
checkout's ``src``.  Prints each file's count and then the total.
"""

import sys
import tokenize
from pathlib import Path

# tokens that never make a line count, and those that end or open a statement
_IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of code lines of one Python file."""
    with open(path, "rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline) if t.type not in _IGNORED]
    lines = set()
    for i, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        if (token.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in _LAYOUT)
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    roots = [Path(arg) for arg in (argv or [Path(__file__).resolve().parents[1] / "src"])]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
