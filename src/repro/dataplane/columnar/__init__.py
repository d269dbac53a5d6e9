"""Columnar batch data plane: struct-of-arrays bursts + compiled programs.

See DESIGN.md §13. Entry points:

* :class:`~repro.dataplane.columnar.batch.PacketBatch` — one burst in
  struct-of-arrays form;
* :class:`~repro.dataplane.columnar.compiler.BatchCompiler` — lowers a
  gateway's placed program into a :class:`~repro.dataplane.columnar.
  compiler.CompiledProgram` executed over whole batches;
* :func:`~repro.dataplane.columnar.backend.resolve_backend` — numpy or
  pure-python column storage (numpy is the optional ``fast`` extra).
"""

from .backend import (
    BACKEND_ENV,
    NumpyBackend,
    PythonBackend,
    numpy_available,
    resolve_backend,
)
from .batch import PacketBatch
from .compiler import (
    BatchCompiler,
    BatchTally,
    CompiledAcl,
    CompiledProgram,
    Contribution,
    KeyDecision,
)

__all__ = [
    "BACKEND_ENV",
    "BatchCompiler",
    "BatchTally",
    "CompiledAcl",
    "CompiledProgram",
    "Contribution",
    "KeyDecision",
    "NumpyBackend",
    "PacketBatch",
    "PythonBackend",
    "numpy_available",
    "resolve_backend",
]
