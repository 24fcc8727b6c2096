"""Importable trial functions for exercising the runtime itself.

Trial functions must be resolvable by ``module:qualname`` from worker
processes, so the runtime's own test trials live here rather than
inside test modules (which are not importable under every
multiprocessing start method).
"""

from __future__ import annotations

from typing import Any, Dict

from .spec import TrialSpec


def echo_trial(spec: TrialSpec) -> Dict[str, Any]:
    """Return the spec's seed/coords/options — pure plumbing check."""
    return {
        "seed": spec.seed,
        "coords": spec.coords,
        **dict(spec.options),
    }


def failing_trial(spec: TrialSpec) -> Dict[str, Any]:
    """Raise unless ``options['ok']`` is truthy — error-path check."""
    if not spec.opt("ok"):
        raise ValueError(f"trial {spec.coords!r} was told to fail")
    return {"survived": True}


def scalar_trial(spec: TrialSpec) -> Any:
    """Return a bare int — exercises the dict-contract check."""
    return spec.seed


__all__ = ["echo_trial", "failing_trial", "scalar_trial"]
