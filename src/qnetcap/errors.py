"""Error types and the input checks that need only the standard library.

The command line reports flag and JSON-syntax errors from here before any
numerical library is imported.  ``channels`` and ``qstate`` re-export
these names, so ``from qnetcap.channels import SchemaError`` and
``from qnetcap.qstate import InvariantError`` keep working.
"""

from __future__ import annotations

import json
from pathlib import Path


class SchemaError(ValueError):
    """A document, name, or argument does not match the expected structure."""


class InvariantError(ValueError):
    """A numerical invariant failed (non-PSD state, negative information, ...)."""


def read_json(path, what: str):
    """Parse the JSON file at ``path``; an unreadable or malformed file is a
    SchemaError naming ``what`` the file should hold."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} file {path} is not JSON: {exc}") from None


def whole_number(value, what: str) -> int:
    """``value`` as an int when it is a finite whole number; otherwise a
    SchemaError naming ``what`` it counts."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise SchemaError(f"{what} must be a whole number, got {value}")
    return whole
