"""Deterministic fault injection for the engine, service, and server tiers.

See :mod:`repro.faults.plan` for declaring *what* fails where and when, and
:mod:`repro.faults.injection` for the process-wide injector that production
code consults via :func:`fire`.  With no plan installed, :func:`fire` is a
single ``None`` check — the subsystem costs nothing on the happy path.
"""

from repro.faults.injection import (
    FaultInjector,
    InjectedConnectionDrop,
    InjectedEngineTimeout,
    InjectedFault,
    InjectedPartitionLoss,
    active,
    deactivate,
    fire,
    injecting,
    install,
)
from repro.faults.plan import (
    KINDS,
    SITES,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    validate_sites,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedConnectionDrop",
    "InjectedEngineTimeout",
    "InjectedFault",
    "InjectedPartitionLoss",
    "KINDS",
    "SITES",
    "active",
    "deactivate",
    "fire",
    "injecting",
    "install",
    "validate_sites",
]
