"""Verification reports and the size guard for exhaustive checks.

Report property tags used across the package:

  A1   every vertex pair is joined by two internally disjoint rainbow paths
  A2   every vertex has a rainbow fan to any two other vertices (paths share
       only the source)
  A3   any four vertices admit a pairing joined by two fully disjoint
       rainbow paths
  A4   the vertex-to-color map is injective
  A5   each mapped color is used on exactly one edge, incident to the
       mapped vertex
  B1   before attaching an ear, its endpoints are joined by a rainbow path
       avoiding the color reserved for the attachment vertex
  B2   the color on the ear's edge at its larger endpoint is the mapped
       color of its smaller endpoint, the color reserved for the attachment
       vertex
  structure   shape facts (decomposition layout, forest structure, a replayed
              trace that does not build the coloring it came with)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInput


@dataclass(frozen=True)
class SizeGuard:
    """Limits above which exhaustive path enumeration is refused."""

    max_vertices: int = 12
    max_edges: int = 28

    def __post_init__(self) -> None:
        if self.max_vertices < 0 or self.max_edges < 0:
            raise InvalidInput(
                f"size guard limits must be at least 0, got ({self.max_vertices}, {self.max_edges})"
            )

    def refusal(self, vertex_count: int, edge_count: int) -> str | None:
        """Why a graph of this size is refused, or None when it is allowed."""
        if vertex_count <= self.max_vertices and edge_count <= self.max_edges:
            return None
        return (
            f"graph with {vertex_count} vertices / {edge_count} edges "
            f"exceeds the size guard ({self.max_vertices}, {self.max_edges})"
        )


# The standard corpus fits: K_{5,5}, its densest member, has 25 edges.
DEFAULT_GUARD = SizeGuard()


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: tuple
    reason: str

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "subject": list(self.subject), "reason": self.reason}


@dataclass
class VerificationReport:
    """Outcome of one verification pass.

    A skipped report was not actually checked: the input exceeded the size
    guard and its single violation, of kind ``"skipped"``, says so.
    """

    checked_property: str
    witnesses: list
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def skipped(self) -> bool:
        return any(v.kind == "skipped" for v in self.violations)

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "checked_property": self.checked_property,
            "skipped": self.skipped,
            "witnesses": [list(w) for w in self.witnesses],
            "violations": [v.to_json_obj() for v in self.violations],
        }


def passing(prop: str, witnesses: list) -> VerificationReport:
    return VerificationReport(prop, witnesses)


def failing(prop: str, violations: list[Violation]) -> VerificationReport:
    if not violations:
        raise ValueError("a failing report needs at least one violation")
    return VerificationReport(prop, [], violations)


def skipped(prop: str, reason: str) -> VerificationReport:
    return VerificationReport(prop, [], [Violation("skipped", (), reason)])
