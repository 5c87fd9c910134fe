"""Static code-size metric from the paper (Fig. 4a).

The paper measures "lines of code" *after preprocessing*, ignoring
non-executable lines: uniform / input / output / precision declarations,
comments, whitespace, and lines consisting only of brackets.  Unused function
definitions *do* count (the paper notes they inflate the metric).
"""

from __future__ import annotations

import re

from repro.glsl.preprocessor import preprocess

_NON_EXECUTABLE_PREFIXES = (
    "uniform", "in ", "out ", "attribute", "varying", "precision", "layout",
    "flat ",
)
_BRACKETS_ONLY = re.compile(r"^[\s{}()\[\];]*$")


def lines_of_code(source: str) -> int:
    """Count executable lines of *source* per the paper's Fig. 4a rules."""
    text = _strip_comments(preprocess(source).text)
    count = 0
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        if _BRACKETS_ONLY.match(line):
            continue
        if line.startswith("#"):
            continue
        if any(line.startswith(p) for p in _NON_EXECUTABLE_PREFIXES):
            continue
        count += 1
    return count


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)
