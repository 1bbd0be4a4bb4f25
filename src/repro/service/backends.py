"""Pluggable filter backends for the membership service.

Every backend implements the same ``create_filter(keys, negatives, costs)``
interface as :class:`repro.kvstore.filter_policy.FilterPolicy` — in fact the
built-in backends *are* the kvstore filter policies, so a filter tuned for
the LSM read path and one tuned for the serving path are configured the same
way.  The registry adds name-based lookup so services, examples and the
evidence script can select backends from a string (``"habf"``, ``"f-habf"``,
``"bloom"``, ``"bloom-dh"``, ``"xor"``, ``"wbf"``, ``"lbf"``, ``"slbf"``,
``"adabf"``).

Every registered backend's filters round-trip through
:mod:`repro.service.codec`, which is load-bearing twice over: sharded stores
snapshot/restore regardless of policy, and parallel build workers hand
finished shards back to the parent process as codec frames.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.baselines.learned.policy import (
    AdaptiveLearnedBloomFilterPolicy,
    LearnedBloomFilterPolicy,
    SandwichedLearnedBloomFilterPolicy,
)
from repro.errors import ConfigurationError
from repro.kvstore.filter_policy import (
    BloomFilterPolicy,
    DoubleHashBloomFilterPolicy,
    FastHABFFilterPolicy,
    FilterPolicy,
    HABFFilterPolicy,
    WeightedBloomFilterPolicy,
    XorFilterPolicy,
)

BackendFactory = Callable[..., FilterPolicy]
BackendSpec = Union[str, FilterPolicy]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register ``factory`` (keyword-configurable) under ``name``.

    Re-registering a name overwrites the previous factory, which lets tests
    and downstream code shadow a built-in backend.
    """
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Return the registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend(name: str, **kwargs) -> FilterPolicy:
    """Instantiate the backend registered under ``name``.

    Keyword arguments are forwarded to the factory (e.g. ``bits_per_key``,
    ``seed``).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown filter backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    return factory(**kwargs)


def resolve_backend(spec: BackendSpec, **kwargs) -> FilterPolicy:
    """Turn a backend spec into a ready policy object.

    ``spec`` may be a registered name (instantiated with ``kwargs``) or an
    object already implementing ``create_filter`` (returned as-is; passing
    ``kwargs`` alongside an instance is an error because they would be
    silently ignored).
    """
    if isinstance(spec, str):
        return get_backend(spec, **kwargs)
    if hasattr(spec, "create_filter"):
        if kwargs:
            raise ConfigurationError(
                "backend keyword arguments are only valid with a backend name, "
                f"not a ready instance of {type(spec).__name__}"
            )
        return spec
    raise ConfigurationError(
        f"backend spec must be a name or a FilterPolicy-like object, got {type(spec).__name__}"
    )


register_backend("habf", HABFFilterPolicy)
register_backend("f-habf", FastHABFFilterPolicy)
register_backend("bloom", BloomFilterPolicy)
register_backend("bloom-dh", DoubleHashBloomFilterPolicy)
register_backend("xor", XorFilterPolicy)
register_backend("wbf", WeightedBloomFilterPolicy)
register_backend("lbf", LearnedBloomFilterPolicy)
register_backend("slbf", SandwichedLearnedBloomFilterPolicy)
register_backend("adabf", AdaptiveLearnedBloomFilterPolicy)

#: Names registered by this module itself.  Process-pool build workers
#: re-resolve backends by name in a fresh interpreter, which only has these
#: registrations — runtime `register_backend` calls are not visible there
#: (unless the worker re-imports whatever module registered them), so
#: automatic worker-mode selection treats only built-ins as process-safe.
BUILTIN_BACKENDS = frozenset(_REGISTRY)
