"""Exception types shared across the toolkit."""

from __future__ import annotations


class KPCoverError(Exception):
    """Base class for all toolkit errors."""


class SelfLoopError(KPCoverError):
    """An edge joins a vertex to itself."""


class VertexOutOfRangeError(KPCoverError):
    """A vertex id falls outside 1..n."""


class InstanceInvalidError(KPCoverError):
    """An instance failed validation; carries the validation report."""

    def __init__(self, report):
        super().__init__("; ".join(report.violations) or "invalid instance")
        self.report = report


class KOutOfRangeError(KPCoverError):
    """Requested clique size outside 0..n."""


class NotACliqueError(KPCoverError):
    """Certificate set is not a clique of the given graph."""


class NotACoverError(KPCoverError):
    """Certificate set does not cover the complement graph."""


class SpecInvalidError(KPCoverError):
    """Generator parameters violate their constraints."""


class ParseError(KPCoverError):
    """Instance file rejected. Carries a 1-based line number and an error kind."""

    def __init__(self, line: int, kind: str, message: str):
        super().__init__(f"line {line}: {kind}: {message}")
        self.line = line
        self.kind = kind
