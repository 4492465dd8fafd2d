"""The built-in decomposition fixtures, held as a Python literal.

``FIXTURES`` holds the fixtures that ``cgmb check`` and ``verify`` run.
It is the one built-in document with a user-supplied twin: ``--fixtures
PATH`` reads a JSON document of the same shape.  So it stays the value
``json.load`` returns for a version-1 document, not records: the tests
hold it to JSON types (str-keyed dicts, lists, str, int, bool, None) and
to the rules ``verify.load_fixture_doc`` applies to a user's document,
and it stays a template for one.  ``verify._read_fixture`` is the one
reader of a fixture, here and in a user's document.  The pinned
classification tables are records in the modules that read them
(``magictables``, ``jinv``).

A literal loads with the module's cached bytecode, so no built-in command
imports ``json``, whose decoder and encoder compile their regular
expressions at import.

The document is shared by every caller in the process: read it, never
mutate it.
"""

from __future__ import annotations

FIXTURES = {
    "version": 1,
    "fixtures": [
        {
            "name": "henke-y1",
            "kind": "identity",
            "claim": (
                "the split (1)-variety polynomial of E7 equals one indecomposable degree-33 block "
                "plus the strongly-inner upper Borel block at shifts 2..14"
            ),
            "total": {"poincare": {"type": "E7", "variety": [1]}},
            "terms": [
                {
                    "kind": "upper",
                    "shifts": [0],
                    "coeffs": [
                        1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1,
                        1, 0, 1, 0, 1, 0, 0, 1, 1,
                    ],
                },
                {
                    "kind": "upper",
                    "shifts": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
                    "coeffs": [1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1],
                },
            ],
        },
        {
            "name": "step5-x2",
            "kind": "residual-expressible",
            "claim": (
                "removing the binary upper motive at shifts 0 and 6 leaves the split (2)-variety "
                "polynomial of E6 expressible over the upper-Borel and quadratic-point blocks "
                "with positive shifts"
            ),
            "total": {"poincare": {"type": "E6", "variety": [2]}},
            "subtract": [
                {
                    "kind": "upper",
                    "shifts": [0, 6],
                    "coeffs": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
                },
            ],
            "blocks": [[1, 0, 0, 1], [2]],
            "min_shift": 1,
        },
        {
            "name": "step5-x16",
            "kind": "residual-expressible",
            "claim": (
                "removing the binary upper motive at shifts 0 and 9 leaves the split "
                "(1,6)-variety polynomial of E6 expressible over the upper-Borel and "
                "quadratic-point blocks with positive shifts"
            ),
            "total": {"poincare": {"type": "E6", "variety": [1, 6]}},
            "subtract": [
                {
                    "kind": "upper",
                    "shifts": [0, 9],
                    "coeffs": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
                },
            ],
            "blocks": [[1, 0, 0, 1], [2]],
            "min_shift": 1,
        },
    ],
}

_DOCS = {"fixtures": FIXTURES}


def load(name: str) -> dict:
    """The built-in document ``name``; ``"fixtures"`` is the only one."""
    return _DOCS[name]


def fixtures() -> dict:
    return load("fixtures")
