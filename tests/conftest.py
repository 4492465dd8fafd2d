import os
import pathlib

import hypothesis

# pytest puts src on sys.path (pyproject.toml); the tests that start
# ``python -m magicsq`` in a subprocess need it on PYTHONPATH as well
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

hypothesis.settings.register_profile("thorough", max_examples=500)
