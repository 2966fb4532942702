"""Constraint sets: joint evaluation, checking modes, and diagnostics.

A :class:`ConstraintSet` bundles the user's constraints ``R`` and
implements the per-group part of the paper's ``holds`` predicate.
Class-based constraints are always evaluated before instance-based ones
(Alg. 1/2: they need no pass over the log).  Instance-based evaluation
receives the group's instances from the caller so that the expensive
``inst`` computation (owned by :mod:`repro.core.instances`) happens at
most once per group.

When Step 2 finds no feasible grouping, :meth:`ConstraintSet.diagnose`
produces the infeasibility report the paper describes in §V-C: which
event classes cannot be covered by any candidate, which classes violate
class-based constraints even as singletons, and for instance-based
constraints the fraction of each class's singleton-group instances that
violate them.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.constraints.base import (
    Category,
    CheckingMode,
    ClassConstraint,
    Constraint,
    GroupingConstraint,
    InstanceConstraint,
    infer_checking_mode,
)
from repro.eventlog.events import Event, EventLog
from repro.exceptions import ConstraintError

#: ``class -> attribute key -> frozenset of observed values``.
ClassAttributeView = dict[str, dict[str, frozenset]]

#: Provider of a group's instances, injected by the core layer.
InstanceProvider = Callable[[frozenset], Sequence[Sequence[Event]]]

#: ``(constraints, classes) -> tables``, as :func:`count_violations`.
ViolationCounter = Callable[
    [Sequence[InstanceConstraint], Sequence[str]], list[dict[str, tuple[int, int]]]
]


def count_violations(
    constraints: Sequence[InstanceConstraint],
    classes: Sequence[str],
    instance_provider: InstanceProvider,
) -> list[dict[str, tuple[int, int]]]:
    """Violating instances of each class's singleton group, per constraint.

    One ``{class: (violated, instances)}`` table per constraint, for the
    classes whose singleton has instances.  This reference counter
    judges every instance with ``constraint.check_instance``; the
    compiled engine's :meth:`repro.core.checker.GroupChecker.count_violations`
    must return the same tables.
    """
    tables = []
    for constraint in constraints:
        table: dict[str, tuple[int, int]] = {}
        for cls in classes:
            singleton = frozenset([cls])
            instances = instance_provider(singleton)
            if instances:
                violated = sum(
                    1
                    for instance in instances
                    if not constraint.check_instance(instance, singleton)
                )
                table[cls] = (violated, len(instances))
        tables.append(table)
    return tables


def class_attribute_view(log: EventLog) -> ClassAttributeView:
    """Collect the class-level attribute values of a log.

    For every event class the view records, per attribute key, the set
    of values observed on events of that class.  Class-based constraints
    over class attributes (e.g. ``|g.origin| <= 1``) are evaluated
    against this view; a class attribute is simply an event attribute
    that happens to be constant per class.
    """
    view: dict[str, dict[str, set]] = {}
    for trace in log:
        for event in trace:
            slot = view.setdefault(event.event_class, {})
            for key, value in event.attributes.items():
                try:
                    slot.setdefault(key, set()).add(value)
                except TypeError:
                    # Unhashable attribute values cannot participate in
                    # distinct-value constraints; skip them.
                    continue
    return {
        cls: {key: frozenset(values) for key, values in slots.items()}
        for cls, slots in view.items()
    }


class ConstraintSet:
    """The user's constraint set ``R``, split by category.

    Constraints are partitioned on construction into class-based,
    instance-based, and grouping constraints (the categories of the
    paper's Table II); the cheap class-based checks always run before
    the instance-based ones, which need a pass over the log.  The set
    also carries the runtime's canonical serialization:
    :meth:`to_json` is order- and whitespace-stable, so equal sets —
    built in any order, in any process — digest to the same content
    fingerprint.

    Parameters
    ----------
    constraints:
        An iterable of :class:`~repro.constraints.base.Constraint`
        objects (e.g. :class:`~repro.constraints.grouping.MaxGroupSize`,
        parsed specs from :func:`repro.constraints.parser.parse_constraints`).

    Example
    -------
    >>> from repro.constraints import ConstraintSet, MaxGroupSize
    >>> len(ConstraintSet([MaxGroupSize(3)]))
    1
    """

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self.constraints: list[Constraint] = list(constraints)
        for constraint in self.constraints:
            if not isinstance(constraint, Constraint):
                raise ConstraintError(
                    f"expected Constraint, got {type(constraint).__name__}"
                )
        self.grouping: list[GroupingConstraint] = [
            c for c in self.constraints if isinstance(c, GroupingConstraint)
        ]
        self.class_based: list[ClassConstraint] = [
            c for c in self.constraints if isinstance(c, ClassConstraint)
        ]
        self.instance_based: list[InstanceConstraint] = [
            c for c in self.constraints if isinstance(c, InstanceConstraint)
        ]

    # -- structural properties -------------------------------------------

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    @property
    def checking_mode(self) -> CheckingMode:
        """The pruning mode implied by this set (Alg. 1 line 1)."""
        return infer_checking_mode(self.constraints)

    @property
    def max_groups(self) -> int | None:
        """Tightest upper bound on ``|G|`` across grouping constraints."""
        bounds = [c.max_groups for c in self.grouping if c.max_groups is not None]
        return min(bounds) if bounds else None

    @property
    def min_groups(self) -> int | None:
        """Tightest lower bound on ``|G|`` across grouping constraints."""
        bounds = [c.min_groups for c in self.grouping if c.min_groups is not None]
        return max(bounds) if bounds else None

    @property
    def needs_instances(self) -> bool:
        """Whether evaluating this set requires computing group instances."""
        return bool(self.instance_based)

    # -- per-group evaluation (the ``holds`` predicate) --------------------

    def check_class_constraints(
        self,
        group: frozenset[str],
        class_attributes: Mapping[str, Mapping[str, frozenset]] | None,
    ) -> bool:
        """Evaluate all class-based constraints on ``group``."""
        return all(
            constraint.check(group, class_attributes)
            for constraint in self.class_based
        )

    def check_instance_constraints(
        self,
        group: frozenset[str],
        instances: Sequence[Sequence[Event]],
    ) -> bool:
        """Evaluate all instance-based constraints on the group's instances."""
        return all(
            constraint.check_instances(instances, group)
            for constraint in self.instance_based
        )

    def holds_for_group(
        self,
        group: frozenset[str],
        class_attributes: Mapping[str, Mapping[str, frozenset]] | None,
        instance_provider: InstanceProvider | None,
    ) -> bool:
        """The per-group ``holds(g, L, R)`` predicate.

        Class-based constraints are checked first (cheap, no log pass);
        instances are requested from ``instance_provider`` only when
        instance-based constraints are present.
        """
        if not self.check_class_constraints(group, class_attributes):
            return False
        if self.instance_based:
            if instance_provider is None:
                raise ConstraintError(
                    "instance-based constraints present but no instance "
                    "provider supplied"
                )
            instances = instance_provider(group)
            if not self.check_instance_constraints(group, instances):
                return False
        return True

    def check_grouping_size(self, num_groups: int) -> bool:
        """Evaluate the grouping constraints against ``|G| = num_groups``."""
        return all(constraint.check(num_groups) for constraint in self.grouping)

    # -- diagnostics --------------------------------------------------------

    def diagnose(
        self,
        log: EventLog,
        class_attributes: Mapping[str, Mapping[str, frozenset]] | None,
        instance_provider: InstanceProvider | None,
        candidates: Iterable[frozenset[str]] = (),
        counter: ViolationCounter | None = None,
    ) -> "InfeasibilityReport":
        """Explain why no feasible grouping exists (paper §V-C).

        The report lists event classes not covered by any candidate,
        classes whose singleton group already violates a class-based
        constraint, and — per instance-based constraint — the fraction
        of each class's singleton-group instances that violate it (the
        classes without a violating instance are left out).  The
        violation counts come from ``counter``
        (default: :func:`count_violations` over ``instance_provider``);
        every fraction divides the same two integers whichever counter
        ran, so reports are equal, insertion order included.
        """
        covered: set[str] = set()
        for candidate in candidates:
            covered.update(candidate)
        uncovered = sorted(log.classes - covered)

        classes = sorted(log.classes)
        class_violations: dict[str, list[str]] = {}
        for cls in classes:
            singleton = frozenset([cls])
            failing = [
                constraint.describe()
                for constraint in self.class_based
                if not constraint.check(singleton, class_attributes)
            ]
            if failing:
                class_violations[cls] = failing

        instance_violation_fractions: dict[str, dict[str, float]] = {}
        if self.instance_based and instance_provider is not None:
            if counter is None:
                tables = count_violations(
                    self.instance_based, classes, instance_provider
                )
            else:
                tables = counter(self.instance_based, classes)
            for constraint, table in zip(self.instance_based, tables):
                per_class: dict[str, float] = {}
                for cls in classes:
                    violated, instances = table.get(cls, (0, 0))
                    if violated:
                        per_class[cls] = violated / instances
                if per_class:
                    instance_violation_fractions[constraint.describe()] = per_class

        return InfeasibilityReport(
            uncovered_classes=uncovered,
            class_constraint_violations=class_violations,
            instance_violation_fractions=instance_violation_fractions,
        )

    # -- canonical serialization -------------------------------------------

    def to_specs(self) -> list[dict]:
        """The constraints as canonically ordered specification dicts.

        Specifications are sorted by their canonical JSON rendering, so
        two sets built from the same constraints in different orders
        produce identical output (required for stable job fingerprints
        in :mod:`repro.service`).
        """
        from repro.constraints.parser import constraint_to_spec

        specs = [constraint_to_spec(constraint) for constraint in self.constraints]
        return sorted(
            specs, key=lambda spec: json.dumps(spec, sort_keys=True, default=str)
        )

    def to_json(self) -> str:
        """Canonical JSON: order- and whitespace-stable for equal sets."""
        return json.dumps(
            self.to_specs(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "ConstraintSet":
        """Rebuild a set from :meth:`to_json` output."""
        from repro.constraints.parser import parse_constraints

        return parse_constraints(json.loads(text))

    def describe(self) -> str:
        """One line per constraint, for logs and error messages."""
        if not self.constraints:
            return "(no constraints)"
        return "; ".join(constraint.describe() for constraint in self.constraints)

    def __repr__(self) -> str:
        return f"ConstraintSet({self.describe()})"


@dataclass
class InfeasibilityReport:
    """Diagnostics attached to an infeasible abstraction problem (§V-C)."""

    uncovered_classes: list[str] = field(default_factory=list)
    class_constraint_violations: dict[str, list[str]] = field(default_factory=dict)
    instance_violation_fractions: dict[str, dict[str, float]] = field(
        default_factory=dict
    )

    def summary(self) -> str:
        """A readable multi-line summary of the report."""
        lines = []
        if self.uncovered_classes:
            lines.append(
                "classes not covered by any candidate group: "
                + ", ".join(self.uncovered_classes)
            )
        for cls, failures in self.class_constraint_violations.items():
            lines.append(f"class {cls!r} violates: {'; '.join(failures)}")
        for constraint, fractions in self.instance_violation_fractions.items():
            worst = sorted(fractions.items(), key=lambda item: -item[1])[:5]
            rendered = ", ".join(f"{cls} ({frac:.0%})" for cls, frac in worst)
            lines.append(f"constraint {constraint!r} violated for: {rendered}")
        return "\n".join(lines) if lines else "no diagnostic findings"
