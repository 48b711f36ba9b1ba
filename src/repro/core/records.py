"""Protocol records: immutable value objects built at slotted-object cost.

A *record* is a value the protocol sends, signs, decides or caches: the
wire messages, signatures and tags, versions and ACL entries, access
decisions, cache entries, client results and trace records.  One is
built per message, per decision and per traced event, so its
constructor sits on every hot path.

``@dataclass(frozen=True)`` makes such a value immutable by giving it a
``__setattr__`` that raises, so its generated ``__init__`` has to store
each field through ``object.__setattr__``: a global lookup and a call
per field, several times the cost of a plain slot store.  :func:`record`
keeps everything the frozen dataclass provides (``dataclasses.fields``
in declaration order, which the binary codec sends by position and the
signature canonicaliser reads by name; ``==``; ``hash``; ``repr``;
``dataclasses.replace``; assignment and deletion raising
``FrozenInstanceError``) and changes only how an instance is built.  A
generated ``__new__`` fills a *builder*, a mutable twin with the same
``__slots__`` and therefore the same memory layout, with plain stores,
then turns it into an instance of the record by assigning ``__class__``
(one C-level type swap, whatever the field count).  The record has no
``__init__`` of its own, and it pickles and copies as a call of the
class with its field values in declaration order.  Since nothing ever
stores through a record, its ``__setattr__`` and ``__delattr__`` refuse
every name outright.

The rule: every protocol record is declared with ``@record`` and nothing
else.  Configuration built once per run (``AccessPolicy``, ``CellSpec``,
the schedule specs) keeps a plain ``@dataclass``.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, List, Type, TypeVar

if TYPE_CHECKING:
    from typing_extensions import dataclass_transform
else:
    def dataclass_transform(**_: Any):
        return lambda decorator: decorator

__all__ = ["record"]

T = TypeVar("T")


def _refuse_assignment(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass_transform(frozen_default=True)
def record(cls: Type[T]) -> Type[T]:
    """Declare ``cls`` a protocol record: a frozen, slotted dataclass
    whose instances are built by plain slot stores."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = tuple(f.name for f in fields(cls))
    namespace: Dict[str, Any] = {
        "_Builder": type(f"{cls.__name__}Builder", (), {"__slots__": names}),
        "_MISSING": MISSING,
    }
    params: List[str] = []
    fills: List[str] = []
    for f in fields(cls):
        if f.default is not MISSING:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        elif f.default_factory is not MISSING:
            namespace[f"_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_MISSING")
            fills.append(f"    if {f.name} is _MISSING: {f.name} = _factory_{f.name}()")
        else:
            params.append(f.name)
    body = [f"def __new__(cls, {', '.join(params)}):", *fills, "    self = _Builder()"]
    body += [f"    self.{name} = {name}" for name in names]
    body += ["    self.__class__ = cls", "    return self"]
    values = "".join(f"self.{name}, " for name in names)
    body += ["def __reduce__(self):", f"    return self.__class__, ({values})"]
    exec(compile("\n".join(body), f"<record {cls.__qualname__}>", "exec"), namespace)
    cls.__new__ = staticmethod(namespace["__new__"])
    cls.__reduce__ = namespace["__reduce__"]
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    del cls.__init__
    return cls
