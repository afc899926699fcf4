"""Axiom check reports: exact residuals located at basis multi-indices."""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Matrix, canonical, vec_dense, vec_sub


@dataclass(frozen=True)
class Violation:
    axiom: str
    index: tuple
    residual: tuple


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple = ()
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def merged(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.violations + other.violations, self.checked + other.checked)

    def failing_axioms(self) -> tuple:
        seen = []
        for v in self.violations:
            if v.axiom not in seen:
                seen.append(v.axiom)
        return tuple(seen)

    def format(self, labels=None, verbose: bool = False) -> str:
        """Human-readable summary; residual entries printed exactly."""
        lines = []
        if self.passed:
            lines.append(f"PASS ({self.checked} instances checked)")
        else:
            lines.append(f"FAIL ({len(self.violations)} violations in {self.checked} instances)")
        shown = self.violations if verbose else self.violations[:20]
        for v in shown:
            idx = ",".join(_label(i, labels) for i in v.index)
            res = " ".join(str(x) for x in v.residual)
            lines.append(f"  violation {v.axiom} at basis ({idx}): residual [{res}]")
        if len(self.violations) > len(shown):
            lines.append(f"  ... {len(self.violations) - len(shown)} more")
        return "\n".join(lines)


def _label(i, labels):
    if labels is not None and isinstance(i, int) and 0 <= i < len(labels):
        return labels[i]
    return str(i)


class ConstructionError(ValueError):
    """A structure constructor's verification failed; carries the report."""

    def __init__(self, message: str, report: AxiomReport | None = None):
        if report is not None and not report.passed:
            message = f"{message}: {', '.join(report.failing_axioms())}"
        super().__init__(message)
        self.report = report


def require(report: AxiomReport, what: str) -> AxiomReport:
    """Return ``report`` if it passed; otherwise raise ConstructionError(what, report)."""
    if not report.passed:
        raise ConstructionError(what, report)
    return report


@dataclass
class ReportBuilder:
    violations: list = field(default_factory=list)
    checked: int = 0

    # Each check compares first and subtracts only when the sides differ:
    # equal sides always leave a zero residual, so the report is the same.
    def check_vec(self, axiom: str, index: tuple, lhs: dict, rhs: dict, n: int) -> None:
        """Compare two sparse vectors of length ``n``; a violation carries
        the dense residual lhs - rhs."""
        self.checked += 1
        if lhs == rhs:
            return
        # sparse vectors hold no zeros, so unequal sides differ somewhere
        residual = vec_sub(lhs, rhs)
        some = next(iter(residual.values()))
        zero = canonical(some - some)
        self.violations.append(Violation(axiom, index, tuple(vec_dense(residual, n, zero))))

    def check_block(self, lhs: list, rhs: list, n: int, instances) -> None:
        """``check_vec`` on each ``(axiom, index)`` of the iterable
        ``instances`` with the sides at its place in ``lhs`` and ``rhs``.  The
        two lists are compared once; only a block that differs is walked
        instance by instance, so the report is the one ``check_vec`` makes."""
        if lhs == rhs:
            self.checked += len(lhs)
            return
        for (axiom, index), l, r in zip(instances, lhs, rhs):
            self.check_vec(axiom, index, l, r, n)

    def check_scalar(self, axiom: str, index: tuple, lhs, rhs) -> None:
        self.checked += 1
        if lhs == rhs:
            return
        residual = lhs - rhs
        if residual:
            self.violations.append(Violation(axiom, index, (canonical(residual),)))

    def check_matrix(self, axiom: str, index: tuple, lhs: Matrix, rhs: Matrix) -> None:
        """``check_columns`` on two matrices of one shape."""
        if lhs.shape != rhs.shape:
            raise ValueError(f"cannot compare a {lhs.rows}x{lhs.cols} matrix "
                             f"with a {rhs.rows}x{rhs.cols} one")
        self.check_columns(axiom, index, lhs.columns(), rhs.columns(), lhs.field, lhs.rows)

    def check_columns(self, axiom: str, index: tuple, lhs: list, rhs: list, field,
                      rows: int) -> None:
        """Compare two matrices of ``rows`` rows given by their sparse columns."""
        self.checked += 1
        if lhs != rhs:  # the residual is built only when they differ
            by_row = [{} for _ in range(rows)]
            for c, (u, v) in enumerate(zip(lhs, rhs)):
                for r, x in vec_sub(u, v).items():
                    by_row[r][c] = x
            zero = field.zero()
            self.violations.append(Violation(axiom, index, tuple(
                x for row in by_row for x in vec_dense(row, len(lhs), zero))))

    def fail(self, axiom: str, index: tuple, residual=()) -> None:
        self.checked += 1
        self.violations.append(Violation(axiom, index, tuple(residual)))

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self.violations), self.checked)
