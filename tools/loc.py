"""Line counts of the library: each ``src/orientdiam`` module's total lines and code lines.

Code lines leave out blank lines, comment lines and docstrings (any string
that stands alone as a statement), so a change that only trims or adds prose
moves the total but not the code count. Counted with the standard library's
``tokenize``, so the numbers do not depend on formatting tools.

Run from anywhere: ``python tools/loc.py``. It takes no options.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orientdiam"

# tokens that are layout, not code; NEWLINE, which ends a statement, is read
# apart from them to find the strings that stand alone
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def counts(path: Path) -> tuple[int, int]:
    """Total lines and code lines of one Python file."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in LAYOUT]
    rows: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        starts = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and starts and tokens[i + 1].type == tokenize.NEWLINE:
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    total = len(path.read_text(encoding="utf-8").splitlines())
    return total, len(rows)


def main() -> None:
    paths = sorted(SRC.glob("*.py"))
    width = max(len(p.name) for p in paths)
    sums = [0, 0]
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for path in paths:
        total, code = counts(path)
        sums[0] += total
        sums[1] += code
        print(f"{path.name:<{width}}  {total:>6}  {code:>6}")
    print(f"{'all':<{width}}  {sums[0]:>6}  {sums[1]:>6}")


if __name__ == "__main__":
    main()
