"""The built-in data documents, held as Python literals.

``TABLES`` holds the J-invariant table, the magic square, the group
conditions, the ²E6 Tits indices and the Tits constructions; ``FIXTURES``
holds the decomposition fixtures that ``cgmb check`` runs.  Each is the
value ``json.load`` returns for a version-1 JSON document: the tests hold
both to JSON types (str-keyed dicts, lists, str, int, bool, None) and
``FIXTURES`` to the rules ``verify.load_fixture_doc`` applies to a user's
``--fixtures`` document, so it stays a template for one.

A literal loads with the module's cached bytecode, so no built-in command
imports ``json``, whose decoder and encoder compile their regular
expressions at import.  The first read of both documents after ``import
magicsq.cli`` took a median of 2.27 ms when it imported ``json`` and
parsed two files, and 0.26 ms from this module (30 fresh processes each,
shared 2-core x86-64 VM, CPython 3.11.7).

The documents are shared by every caller in the process: read them, never
mutate them.
"""

from __future__ import annotations

TABLES = {
    "version": 1,
    "jinv_max": {
        "2x2A2": {"degrees": [3, 3], "caps": [1, 1]},
        "2A5": {"degrees": [2, 1, 3, 5], "caps": [0, 1, 1, 1]},
        "1D6": {"degrees": [1, 1, 3, 5], "caps": [1, 3, 1, 1]},
        "2E6": {"degrees": [3, 5, 9], "caps": [1, 1, 1]},
        "E7": {"degrees": [1, 3, 5, 9], "caps": [1, 1, 1, 1]},
        "E8": {"degrees": [3, 5, 9, 15], "caps": [3, 2, 1, 1]},
    },
    "magic_square": {
        "row_labels": ["base", "quadratic_ext", "quaternion", "octonion"],
        "col_labels": ["A1", "2A2", "C3", "F4"],
        "cells": [
            {"row": "base", "col": "A1", "group": "A1", "degree": 2},
            {"row": "base", "col": "2A2", "group": "2A2", "degree": 3},
            {"row": "base", "col": "C3", "group": "C3", "degree": 4},
            {"row": "base", "col": "F4", "group": "F4", "degree": 5},
            {"row": "quadratic_ext", "col": "A1", "group": "2A2", "degree": 3},
            {"row": "quadratic_ext", "col": "2A2", "group": "2x2A2", "degree": 3},
            {"row": "quadratic_ext", "col": "C3", "group": "2A5", "degree": 4},
            {"row": "quadratic_ext", "col": "F4", "group": "2E6", "degree": 5},
            {"row": "quaternion", "col": "A1", "group": "C3", "degree": 4},
            {"row": "quaternion", "col": "2A2", "group": "2A5", "degree": 4},
            {"row": "quaternion", "col": "C3", "group": "1D6", "degree": 4},
            {"row": "quaternion", "col": "F4", "group": "E7", "degree": 5},
            {"row": "octonion", "col": "A1", "group": "F4", "degree": 5},
            {"row": "octonion", "col": "2A2", "group": "2E6", "degree": 5},
            {"row": "octonion", "col": "C3", "group": "E7", "degree": 5},
            {"row": "octonion", "col": "F4", "group": "E8", "degree": 5},
        ],
    },
    "group_conditions": [
        {
            "group": "A1",
            "degree": 2,
            "j_condition": None,
            "condition": "no conditions",
            "equivalent_condition": "no conditions",
            "parabolic": "any",
        },
        {
            "group": "2A2",
            "degree": 3,
            "j_condition": None,
            "condition": "no conditions",
            "equivalent_condition": "no conditions",
            "parabolic": [1, 2],
        },
        {
            "group": "2x2A2",
            "degree": 3,
            "j_condition": {"values": [1, 0], "degrees": [3, 3]},
            "condition": "J = (1,0) in degrees (3,3)",
            "equivalent_condition": (
                "the group is a product of two isomorphic unitary rank-2 factors"
            ),
            "parabolic": "any",
        },
        {
            "group": "C3",
            "degree": 4,
            "j_condition": None,
            "condition": "no conditions",
            "equivalent_condition": "no conditions",
            "parabolic": [2],
        },
        {
            "group": "2A5",
            "degree": 4,
            "j_condition": {"values": [0, 1, 0, 0], "degrees": [2, 1, 3, 5]},
            "condition": "splits over a quadratic extension; J = (0,1,0,0) in degrees (2,1,3,5)",
            "equivalent_condition": (
                "splits over a quadratic extension and over the function field of its Tits "
                "algebra"
            ),
            "parabolic": [1, 5],
        },
        {
            "group": "1D6",
            "degree": 4,
            "j_condition": {"values": [0, 1, 0, 0], "degrees": [1, 1, 3, 5]},
            "condition": "J = (0,1,0,0) in degrees (1,1,3,5)",
            "equivalent_condition": (
                "the group belongs to an excellent 12-dimensional quadratic form"
            ),
            "parabolic": [1],
        },
        {
            "group": "F4",
            "degree": 5,
            "j_condition": None,
            "condition": "no conditions",
            "equivalent_condition": "no conditions",
            "parabolic": [4],
        },
        {
            "group": "2E6",
            "degree": 5,
            "j_condition": {"values": [1, 0, 0], "degrees": [3, 5, 9]},
            "condition": "splits over a quadratic extension; J = (1,0,0) in degrees (3,5,9)",
            "equivalent_condition": (
                "splits over a quadratic extension and the mod-2 part of the degree-3 invariant "
                "is a pure symbol"
            ),
            "parabolic": [1, 6],
        },
        {
            "group": "E7",
            "degree": 5,
            "j_condition": {"values": [1, 0, 0, 0], "degrees": [1, 3, 5, 9]},
            "condition": "J = (1,0,0,0) in degrees (1,3,5,9)",
            "equivalent_condition": "splits over the function field of its Tits algebra",
            "parabolic": [1],
        },
        {
            "group": "E8",
            "degree": 5,
            "j_condition": {"values": [0, 0, 0, 1], "degrees": [3, 5, 9, 15]},
            "condition": "J = (0,0,0,1) in degrees (3,5,9,15)",
            "equivalent_condition": "the even part of the degree-3 invariant vanishes",
            "parabolic": "any",
        },
    ],
    "tits_index_2e6": {
        "note": (
            "Isotropy classification for outer E6 with split Tits algebras. Circled-node sets are "
            "transcribed from folded-diagram pictures (single nodes 2 and 4, pairs {3,5} and "
            "{1,6}); independent double-checking of the transcription is advised."
        ),
        "cases": [
            {
                "rost_condition": "zero",
                "circled_nodes": [1, 2, 3, 4, 5, 6],
                "kernel_type": "trivial",
                "quasi_split": True,
                "impossible": False,
            },
            {
                "rost_condition": "pure-symbol-divisible-by-k",
                "circled_nodes": [1, 2, 6],
                "kernel_type": "2A3",
                "quasi_split": False,
                "impossible": False,
            },
            {
                "rost_condition": "symbol-not-divisible-by-k",
                "circled_nodes": [1, 6],
                "kernel_type": "2D4",
                "quasi_split": False,
                "impossible": False,
            },
            {
                "rost_condition": "not-pure-symbol",
                "circled_nodes": [2],
                "kernel_type": "2A5",
                "quasi_split": False,
                "impossible": False,
            },
            {
                "rost_condition": "impossible-with-split-tits",
                "circled_nodes": [2, 4],
                "kernel_type": "2x2A2",
                "quasi_split": False,
                "impossible": True,
            },
        ],
    },
    "tits_constructions": [
        {
            "group": "2x2A2",
            "construction": "mu2 x 2A2",
            "inputs": "scalar x 9-dimensional Freudenthal algebra",
            "condition": {
                "lhs": "scalar",
                "relation": "equals",
                "rhs": "f1",
                "invariant_degree": 1,
            },
            "condition_text": (
                "the scalar class equals the degree-1 invariant of the 9-dimensional Freudenthal "
                "algebra"
            ),
        },
        {
            "group": "2A5",
            "construction": "mu2 x C3",
            "inputs": "scalar x 15-dimensional Freudenthal algebra",
            "condition": {
                "lhs": "scalar",
                "relation": "divides",
                "rhs": "f2",
                "invariant_degree": 2,
            },
            "condition_text": (
                "the scalar class divides the degree-2 invariant of the 15-dimensional "
                "Freudenthal algebra"
            ),
        },
        {
            "group": "2A5",
            "construction": "A1 x 2A2",
            "inputs": "quaternions x 9-dimensional Freudenthal algebra",
            "condition": {
                "lhs": "quaternions",
                "relation": "divisible_by",
                "rhs": "f1",
                "invariant_degree": 1,
            },
            "condition_text": (
                "the quaternion class is divisible by the degree-1 invariant of the 9-dimensional "
                "Freudenthal algebra"
            ),
        },
        {
            "group": "1D6",
            "construction": "A1 x C3",
            "inputs": "quaternions x 15-dimensional Freudenthal algebra",
            "condition": {
                "lhs": "quaternions",
                "relation": "divides",
                "rhs": "f2",
                "invariant_degree": 2,
            },
            "condition_text": (
                "the quaternion class divides (equivalently, equals) the degree-2 invariant of "
                "the 15-dimensional Freudenthal algebra"
            ),
        },
        {
            "group": "2E6",
            "construction": "mu2 x F4",
            "inputs": "scalar x Albert algebra",
            "condition": {
                "lhs": "scalar",
                "relation": "divides",
                "rhs": "f3",
                "invariant_degree": 3,
            },
            "condition_text": (
                "the scalar class divides the degree-3 invariant of the Albert algebra"
            ),
        },
        {
            "group": "2E6",
            "construction": "G2 x 2A2",
            "inputs": "octonions x 9-dimensional Freudenthal algebra",
            "condition": {
                "lhs": "octonions",
                "relation": "divisible_by",
                "rhs": "f1",
                "invariant_degree": 1,
            },
            "condition_text": (
                "the octonion class is divisible by the degree-1 invariant of the 9-dimensional "
                "Freudenthal algebra"
            ),
        },
        {
            "group": "E7",
            "construction": "A1 x F4",
            "inputs": "quaternions x Albert algebra",
            "condition": {
                "lhs": "quaternions",
                "relation": "divides",
                "rhs": "f3",
                "invariant_degree": 3,
            },
            "condition_text": (
                "the quaternion class divides the degree-3 invariant of the Albert algebra"
            ),
        },
        {
            "group": "E7",
            "construction": "C3 x G2",
            "inputs": "15-dimensional Freudenthal algebra x octonions",
            "condition": {
                "lhs": "f2",
                "relation": "divides",
                "rhs": "octonions",
                "invariant_degree": 2,
            },
            "condition_text": (
                "the degree-2 invariant of the 15-dimensional Freudenthal algebra divides the "
                "octonion class"
            ),
        },
        {
            "group": "E8",
            "construction": "G2 x F4",
            "inputs": "octonions x Albert algebra",
            "condition": {
                "lhs": "octonions",
                "relation": "divides",
                "rhs": "f3",
                "invariant_degree": 3,
            },
            "condition_text": (
                "the octonion class divides (equivalently, equals) the degree-3 invariant of the "
                "Albert algebra"
            ),
        },
    ],
}

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

_DOCS = {"tables": TABLES, "fixtures": FIXTURES}


def load(name: str) -> dict:
    """The built-in document ``name``: ``"tables"`` or ``"fixtures"``."""
    return _DOCS[name]


def tables() -> dict:
    return load("tables")


def fixtures() -> dict:
    return load("fixtures")
