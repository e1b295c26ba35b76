"""The public-API snapshot: exported names and callable signatures.

The serve redesign promises a stable public surface: ``repro.serve``
is the front door, the pre-serve façades keep their exact shape for
the deprecation window, and nothing leaks or disappears silently. This
test pins that contract against a checked-in golden file — any change
to ``__all__`` or a public signature fails here first and must be a
deliberate commit:

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_public_api.py

rewrites ``tests/golden/public_api.json`` after an intentional change.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pathlib
import re

GOLDEN = pathlib.Path(__file__).parent / "golden" / "public_api.json"

#: The modules whose exported surface is a compatibility promise.
PUBLIC_MODULES = (
    "repro",
    "repro.data",
    "repro.errors",
    "repro.faults",
    "repro.replica",
    "repro.serve",
    "repro.stream",
)


def _signature(obj) -> str | None:
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return None
    # Default values may repr with process-specific addresses
    # (lambdas, bound functions); those are not part of the contract.
    return re.sub(r" at 0x[0-9a-fA-F]+", "", text)


def _describe(obj) -> dict:
    if inspect.isclass(obj):
        methods = {}
        for name, member in sorted(vars(obj).items()):
            if name.startswith("_"):
                continue
            if callable(member) or isinstance(
                member, (classmethod, staticmethod, property)
            ):
                target = (
                    member.fget
                    if isinstance(member, property)
                    else getattr(member, "__func__", member)
                )
                methods[name] = (
                    "property" if isinstance(member, property) else _signature(target)
                )
        return {
            "kind": "exception" if issubclass(obj, BaseException) else "class",
            "init": _signature(obj),
            "members": methods,
        }
    if callable(obj):
        return {"kind": "function", "signature": _signature(obj)}
    return {"kind": type(obj).__name__}


def build_snapshot() -> dict:
    snapshot = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        exports = sorted(module.__all__)
        snapshot[module_name] = {
            "all": exports,
            "api": {name: _describe(getattr(module, name)) for name in exports},
        }
    return snapshot


def test_public_api_matches_golden():
    current = build_snapshot()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    assert GOLDEN.exists(), (
        "golden snapshot missing — generate it with "
        "REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_public_api.py"
    )
    golden = json.loads(GOLDEN.read_text())
    for module_name in PUBLIC_MODULES:
        assert module_name in golden, f"{module_name} missing from golden"
        want, got = golden[module_name], current[module_name]
        assert got["all"] == want["all"], (
            f"{module_name}.__all__ changed — if intentional, regenerate "
            "the golden (REPRO_UPDATE_GOLDEN=1) and document the change"
        )
        for name in want["api"]:
            assert got["api"].get(name) == want["api"][name], (
                f"{module_name}.{name} changed shape — if intentional, "
                "regenerate the golden (REPRO_UPDATE_GOLDEN=1)"
            )


def test_serve_is_the_front_door():
    """The redesign's headline exports exist with the promised shapes."""
    serve = importlib.import_module("repro.serve")
    for name in (
        "Service",
        "TenantHandle",
        "ServeConfig",
        "TenantManager",
        "TokenBucket",
        "ConfigError",
        "QuotaExceeded",
        "ServeError",
        "UnknownTenantError",
    ):
        assert name in serve.__all__, f"repro.serve must export {name}"
    open_params = inspect.signature(serve.Service.open).parameters
    assert "config" in open_params and "kwargs" in open_params
    # Errors are importable from the package root too.
    root = importlib.import_module("repro")
    assert {"Service", "ServeConfig", "QuotaExceeded", "ConfigError"} <= set(
        root.__all__
    )


def test_deprecated_facades_still_exported():
    """ClusteringService stays public for the migration window; the
    replicated façade is gone (replication goes through Service)."""
    stream = importlib.import_module("repro.stream")
    replica = importlib.import_module("repro.replica")
    root = importlib.import_module("repro")
    assert "ClusteringService" in stream.__all__
    assert "ReplicatedClusteringService" not in replica.__all__
    assert "ReplicatedClusteringService" not in root.__all__
