"""ARCH007: store dataclasses must be frozen and hash-stable.

The content-addressed campaign store (:mod:`repro.store`) keys every
entry on a canonical fingerprint and records entry metadata in frozen
value objects.  Two properties keep that trustworthy:

* **Frozen.**  A mutable header/stats/result object invites in-place
  edits after publication -- the recorded facts must be immutable
  snapshots, exactly like the pool-boundary payloads (ARCH002).
* **Hash-stable fields.**  A field annotated as an unordered
  collection (``set``, ``frozenset``, ``Set``...) has no stable
  iteration order, so any fingerprint or serialisation derived from it
  can differ between runs with equal content -- the canonical encoder
  (:func:`repro.store.fingerprint.canonical`) rejects such values at
  runtime, and this rule rejects the *declarations* statically, before
  a key ever gets built.  ``Callable`` fields are flagged too: a
  function has no content fingerprint at all.

Mappings stay legal -- the canonical encoder sorts them by key.
"""

from __future__ import annotations

from .base import register
from .picklability import FrozenDataclassRule

#: Annotation names with no stable iteration order (or no content
#: fingerprint at all, for Callable).
_UNSTABLE_NAMES = frozenset(
    {
        "set",
        "frozenset",
        "Set",
        "FrozenSet",
        "MutableSet",
        "AbstractSet",
        "Callable",
    }
)


@register
class StoreKeyStabilityRule(FrozenDataclassRule):
    code = "ARCH007"
    name = "store-key-stability"
    description = (
        "dataclasses in repro.store must be frozen=True and must not "
        "declare unordered-collection or callable fields"
    )
    # repro.fleet dataclasses feed report hashing and (via fitted
    # theta) store keys, so they obey the same stability rules.
    scope = ("repro.store", "repro.fleet")
    forbidden = _UNSTABLE_NAMES
    unfrozen_message = (
        "store dataclass {cls!r} must be declared @dataclass(frozen=True): "
        "published store records are immutable snapshots"
    )
    field_message = (
        "field {cls}.{field} is annotated with {bad}: unordered/callable "
        "fields have no stable content fingerprint (sort into a tuple "
        "instead)"
    )
