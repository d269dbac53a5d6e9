"""Columnar batch data plane: struct-of-arrays bursts + compiled programs.

See DESIGN.md §13. Entry points:

* :class:`~repro.dataplane.columnar.batch.PacketBatch` — one burst in
  struct-of-arrays form;
* :class:`~repro.dataplane.columnar.compiler.BatchCompiler` — lowers a
  gateway's placed program into a :class:`~repro.dataplane.columnar.
  compiler.CompiledProgram` executed over whole batches.
"""

from types import SimpleNamespace

from .batch import PacketBatch
from .compiler import (
    BatchCompiler,
    BatchTally,
    CompiledAcl,
    CompiledProgram,
    Contribution,
    KeyDecision,
)

_COLUMN_STORE = SimpleNamespace(name="python")


def resolve_backend():
    """The column store, for the bench fingerprint's ``backend`` key.

    Columns are plain python lists; there is no other store and no
    numpy. The bench fingerprint is the only caller, and this function
    goes once a benchmark change makes that key a constant.

    >>> resolve_backend().name
    'python'
    """
    return _COLUMN_STORE


__all__ = [
    "BatchCompiler",
    "BatchTally",
    "CompiledAcl",
    "CompiledProgram",
    "Contribution",
    "KeyDecision",
    "PacketBatch",
    "resolve_backend",
]
