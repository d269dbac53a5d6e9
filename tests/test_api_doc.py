"""``docs/api.md`` names only what exists.

Every backticked symbol in the first column of a table under a
``## `repro.x` `` (or ``### `repro.x.y` ``) heading must resolve as an
attribute of that section's module. A dotted name (``Controller.
transaction``) resolves attribute by attribute, a trailing call
signature is ignored, and a fully qualified ``repro.`` name resolves
from the package root instead.
"""

import importlib
import pathlib
import re

import pytest

API_MD = pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
HEADING = re.compile(r"^#{2,3} `(repro[\w.]*)`")


def documented_symbols():
    """``(module, symbol)`` for every first-column name in api.md."""
    module = None
    for line in API_MD.read_text().splitlines():
        if line.startswith("#"):
            match = HEADING.match(line)
            module = match.group(1) if match else None
            continue
        if module is None or not line.startswith("|"):
            continue
        first = line.split("|")[1]
        for name in re.findall(r"`([^`]+)`", first):
            yield module, name.split("(")[0]


def resolve(module_name, symbol):
    if symbol.startswith("repro."):
        parts = symbol.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            rest = parts[cut:]
            break
    else:
        obj, rest = importlib.import_module(module_name), symbol.split(".")
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


SYMBOLS = sorted(set(documented_symbols()))


def test_api_md_has_symbol_tables():
    assert len(SYMBOLS) > 100


@pytest.mark.parametrize("module_name,symbol", SYMBOLS,
                         ids=[f"{m}:{s}" for m, s in SYMBOLS])
def test_documented_symbol_resolves(module_name, symbol):
    assert resolve(module_name, symbol) is not None
