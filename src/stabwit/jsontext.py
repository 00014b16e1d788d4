"""The JSON text of every file the package writes.

``dumps(obj)`` returns exactly ``json.dumps(obj, sort_keys=True, indent=2)``.
A counts table is a flat mapping of up to 2^n outcome strings to integers,
and the standard library's indenting encoder is pure Python, so a counts
table, and every string-keyed mapping on the way to one, is rendered with
one join per mapping: the keys of a counts table are ASCII letters and
digits, which JSON never escapes, and its values are plain integers, which
JSON writes as ``str`` does.  Everything else is rendered by ``json``, so
escaping, booleans, floats and key sorting keep the standard library's
output.
"""
from __future__ import annotations

import json


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``."""
    return _counts_text(obj, "\n") or _json_text(obj, "\n")


def _json_text(obj, newline: str) -> str:
    """The standard library's text of obj after ``newline`` and its indent."""
    # JSON strings escape every newline, so re-indenting the text is safe
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline)


def _counts_text(obj, newline: str) -> str | None:
    """The text of a counts table, or of a string-keyed mapping that holds
    one, after ``newline`` and its indent; None for anything else."""
    if type(obj) is not dict or not set(map(type, obj)) <= {str}:
        return None
    inner = newline + "  "
    if _is_counts(obj):
        parts = [f'"{key}": {obj[key]}' for key in sorted(obj)]
    else:
        texts = {key: _counts_text(value, inner)
                 for key, value in obj.items() if type(value) is dict}
        if not any(texts.values()):
            return None
        parts = [f"{json.dumps(key)}: {texts.get(key) or _json_text(value, inner)}"
                 for key, value in sorted(obj.items())]
    return "{" + inner + ("," + inner).join(parts) + newline + "}"


def _is_counts(obj: dict) -> bool:
    """Keys that JSON writes verbatim, and plain integer values."""
    joined = "".join(obj)
    # bytes.isalnum is a table lookup per byte, str.isalnum a Unicode query
    return (joined.isascii() and joined.encode("ascii").isalnum()
            and set(map(type, obj.values())) <= {int})
