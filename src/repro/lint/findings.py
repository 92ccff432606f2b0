"""Finding records: what a lint rule reports.

A :class:`Finding` pins one violation to a file, line and column with a
stable rule code (``ARCH001``...), a severity, and a human message.  The
*fingerprint* identifies a finding across unrelated edits -- it hashes
the rule code, the file path and the stripped source line text (plus a
duplicate index for identical lines) rather than the line *number*, so
a baseline entry keeps matching when code above it moves.

Cross-module findings (the whole-program rules, ARCH008-ARCH011) span
two files, so one source line cannot identify them.  They carry an
*anchor* instead: a line-number-free string built from the sorted
``path::symbol`` endpoints of the cross-module path.  When an anchor is
set it replaces the source line in the fingerprint, so project findings
survive unrelated line insertions and file reordering exactly the way
per-file findings survive edits above them.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, fields


class Severity(enum.Enum):
    """How bad a finding is; ``ERROR`` findings gate CI."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  #: file path as given to the linter (repo-relative in CI).
    line: int  #: 1-based line of the offending node.
    col: int  #: 0-based column of the offending node.
    code: str  #: stable rule code, e.g. ``"ARCH004"``.
    message: str  #: human explanation, names the offending construct.
    rule: str = ""  #: registry name of the rule, e.g. ``"float-equality"``.
    severity: Severity = field(default=Severity.ERROR, compare=False)
    #: The stripped text of the offending source line (fingerprint input).
    source_line: str = field(default="", compare=False)
    #: Cross-module identity (``code|path::symbol|path::symbol``) for
    #: project findings; empty for per-file findings.  When set it
    #: replaces ``source_line`` as the fingerprint input.
    anchor: str = field(default="", compare=False)

    def identity(self) -> str:
        """The line-number-free payload the fingerprint hashes."""
        return self.anchor or self.source_line

    def fingerprint(self, duplicate_index: int = 0) -> str:
        """Stable identity for baseline matching (line-number free)."""
        payload = "\x1f".join(
            (self.code, self.path, self.identity(), str(duplicate_index))
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def render_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.code} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> dict:
        """JSON-schema form (see ``docs/LINT.md``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "rule": self.rule,
            "fingerprint": self.fingerprint(),
        }

    def to_payload(self) -> dict:
        """Full round-trip form (the summary cache).

        Unlike :meth:`to_dict` this keeps ``source_line`` and
        ``anchor``, so a finding replayed from cache fingerprints
        byte-identically to a freshly computed one.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["severity"] = str(self.severity)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Finding":
        """Inverse of :meth:`to_payload`."""
        return cls(**{**payload, "severity": Severity(payload["severity"])})
