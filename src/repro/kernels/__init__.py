"""Relaxation-kernel registry.

The single home of the kernel names (:data:`KERNELS`, :func:`check_kernel`,
:func:`resolve_kernel`) shared by ``capforest``, ``parallel_capforest``,
the drivers, the CLI, the engine and the service:

``"scalar"``
    Reference kernel, one Python loop iteration per arc (the parity
    oracle).
``"vector"``
    Numpy batch relaxation (see :mod:`repro.core.capforest`).
``"compiled"``
    The name of a removed code-generation tier, kept so scripts and
    service clients that pass it keep working.  It resolves to ``"vector"``:
    :func:`resolve_kernel` reports the substitution, which drivers surface
    as one ``kernel_fallback`` trace event and the ``kernel_fallback``
    stats key.
"""

from __future__ import annotations

#: the kernel registry — the one source of truth for every ``kernel=`` arg
KERNELS = ("scalar", "vector", "compiled")

_COMPILED_NOTE = "compiled tier unavailable (removed; the name is an alias); running vector"


def check_kernel(kernel: str) -> str:
    """Validate a kernel name against the registry (shared error message)."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def resolve_kernel(kernel: str, tracer=None) -> tuple[str, str | None]:
    """Resolve a requested kernel to the one that will run.

    Returns ``(resolved, fallback_reason)`` — ``fallback_reason`` is
    ``None`` unless ``"compiled"`` was requested, in which case the request
    runs as ``"vector"`` and one ``kernel_fallback`` trace event is emitted
    (when a tracer is given).  Drivers resolve once at solve start and pass
    the resolved name down, so a solve emits at most one note.
    """
    check_kernel(kernel)
    if kernel != "compiled":
        return kernel, None
    if tracer is not None:
        tracer.emit(
            "kernel_fallback",
            requested="compiled",
            resolved="vector",
            reason=_COMPILED_NOTE,
        )
    return "vector", _COMPILED_NOTE


__all__ = ["KERNELS", "check_kernel", "resolve_kernel"]
