"""Immutable fixed-shape records: :func:`record`.

The per-transaction records (``Transaction``, ``Receipt``, ``Log``,
``TraceCosts``, ``TxProfileEntry``, ``AccountData``) are built tens of
thousands of times per block loop and never change afterwards — memoised
hashes and encodings, and the structural sharing of snapshots, rest on that.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from typing import Any, Dict, List, Type, TypeVar, dataclass_transform

__all__ = ["record"]

T = TypeVar("T")


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass_transform(frozen_default=True, field_specifiers=(field,))
def record(cls: Type[T]) -> Type[T]:
    """``@dataclass(frozen=True, slots=True)`` with a cheaper constructor.

    Fields, defaults, ``field(...)``, ``__post_init__``, ``__eq__``,
    ``__hash__``, ``__repr__``, ``dataclasses.replace`` / ``fields`` and
    pickling behave as on a frozen dataclass; assignment and deletion raise
    :class:`~dataclasses.FrozenInstanceError`.  The one difference is the
    generated ``__init__``: a frozen dataclass pays an ``object.__setattr__``
    name lookup per field (~1 µs a record), this one fills each slot through
    the slot's own descriptor, which the raising ``__setattr__`` does not see
    (about half of that).  A memo field (``init=False``) is written later the
    way a frozen dataclass writes one, with ``object.__setattr__``.
    """
    cls = dataclass(init=False, unsafe_hash=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    setters = [cls.__dict__[name].__set__ for name in names]
    env: Dict[str, Any] = {"MISSING": MISSING}
    params: List[str] = []
    body: List[str] = []
    for f, setter in zip(fields(cls), setters):
        name, default = f.name, f"default_{f.name}"
        env[f"set_{name}"] = setter
        env[default] = f.default if f.default_factory is MISSING else f.default_factory
        if not f.init:  # a memo slot: no parameter, starts at its default
            body.append(f"set_{name}(self, {default})")
            continue
        if f.default_factory is not MISSING:
            params.append(f"{name}=MISSING")
            body.append(f"if {name} is MISSING: {name} = {default}()")
        else:
            params.append(name if f.default is MISSING else f"{name}={default}")
        body.append(f"set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body), env)

    def getstate(self: Any) -> List[Any]:
        return [getattr(self, name) for name in names]

    def setstate(self: Any, state: List[Any]) -> None:
        for setter, value in zip(setters, state):
            setter(self, value)

    for name, method in (
        ("__init__", env["__init__"]),
        ("__getstate__", getstate),
        ("__setstate__", setstate),
        ("__setattr__", _frozen_setattr),
        ("__delattr__", _frozen_delattr),
    ):
        setattr(cls, name, method)
    return cls
