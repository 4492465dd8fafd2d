"""Loader for the packaged static data documents."""

from __future__ import annotations

import os
from functools import lru_cache

# A plain path next to this file: importlib.resources costs a start about
# 11 ms (pathlib, tempfile, zipfile) and, from Python 3.12, imports inspect.
_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@lru_cache(maxsize=None)
def load(name: str) -> dict:
    import json  # only a command that reads a data file needs it

    with open(os.path.join(_DATA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def tables() -> dict:
    return load("tables.json")


def fixtures() -> dict:
    return load("fixtures.json")
