"""``repro.backends`` — the backend-neutral HLS engine contract.

The adaptor proves LLVM IR can feed *an* HLS engine; this package makes
"an" literal.  :mod:`.base` defines the :class:`HLSBackend` contract and
registry; :mod:`.driver` walks the loop tree and composes regions for
every backend; :mod:`.static` is the Vitis-style statically scheduled
engine; :mod:`.dataflow` is a dynamically scheduled handshake-circuit
engine whose loop II emerges from token-flow simulation.

Typical use::

    from repro.backends import create_backend, backend_ids
    backend = create_backend("dataflow")
    report = backend.synthesize(module)
"""

from .base import (
    BACKENDS,
    DEFAULT_BACKEND,
    BackendCapabilities,
    HLSBackend,
    backend_ids,
    create_backend,
    get_backend_class,
    register_backend,
    resolve_backend_id,
)

# Importing the implementation modules runs their @register_backend
# decorators — the registry is populated as a side effect of importing
# this package, so ``backend_ids()`` is complete from the first call.
from .dataflow import DataflowBackend
from .static import StaticBackend

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendCapabilities",
    "HLSBackend",
    "StaticBackend",
    "DataflowBackend",
    "backend_ids",
    "create_backend",
    "get_backend_class",
    "register_backend",
    "resolve_backend_id",
]
