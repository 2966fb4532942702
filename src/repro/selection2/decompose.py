"""Decomposer: split Step 2 by candidate-overlap connected components.

Two candidate groups *overlap* when they share an event class; the
transitive closure of that relation partitions the candidate set — and
with it the class universe — into independent components.  An exact
cover of the universe is exactly a union of exact covers of the
components, so each component can be solved as its own (much smaller)
set-partitioning program and the optima recombined (the coordination
layer of :mod:`repro.selection2.coordinate` handles the global Eq. 5
cardinality bounds that couple the components).

The split ORs overlapping class masks: each candidate merges every
block it overlaps into one, so two candidates sharing a class end up in
the same class-partition block.  Classes no candidate covers are
reported separately — they make the whole program infeasible.
"""

from __future__ import annotations

import hashlib
import json

from repro.mip.branch_and_bound import PartitionProgram, bits_of


def content_digest(value) -> str:
    """SHA-256 of a JSON-able value's canonical (key-sorted) rendering.

    Local equivalent of :mod:`repro.service.fingerprint` for plain data;
    the selection layer cannot import the service package (the service
    executor imports the pipeline, which imports this module).
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Component(PartitionProgram):
    """One independent sub-program of the Step-2 selection.

    A :class:`~repro.mip.branch_and_bound.PartitionProgram` whose
    ``classes`` mask is the component's sub-universe and whose
    ``candidates`` are the candidate masks living entirely inside it, in
    the global candidate order (sorted by sorted member tuple), with
    their parallel ``costs``.
    """

    def digest(self) -> str:
        """Content digest of the component (classes, candidates, costs).

        The selection-artifact cache keys component solutions by this
        digest (plus bounds and backend), so two jobs whose Step-1
        phases produced the same sub-program — typically a constraint
        sweep over one log — share solved components.  The payload
        names classes, so the key does not depend on the encoding.
        """
        names = self.bits.names
        return content_digest(
            {
                "classes": list(names(self.classes)),
                "candidates": [list(names(group)) for group in self.candidates],
                "costs": list(self.costs),
            }
        )


def decompose(program: PartitionProgram) -> tuple[list[Component], list[str]]:
    """Split a set-partitioning program into independent components.

    ``program``'s candidates are subsets of its classes, in the global
    deterministic order.  Returns ``(components, uncovered)`` where
    ``components`` is sorted by first class for determinism and
    ``uncovered`` lists classes no candidate contains (non-empty ⇒ the
    program is infeasible).
    """
    blocks: list[int] = []
    covered = 0
    for group in program.candidates:
        covered |= group
        # Blocks are disjoint, so a block overlaps the merged mask
        # exactly when it overlaps ``group``.
        merged = group
        rest = []
        for block in blocks:
            if block & group:
                merged |= block
            else:
                rest.append(block)
        rest.append(merged)
        blocks = rest
    blocks.sort(key=lambda block: block & -block)

    block_of: dict[int, int] = {}
    for index, block in enumerate(blocks):
        for bit in bits_of(block):
            block_of[bit] = index
    members: list[tuple[list[int], list[float]]] = [([], []) for _ in blocks]
    for group, cost in zip(program.candidates, program.costs):
        bucket = members[block_of[group & -group]]
        bucket[0].append(group)
        bucket[1].append(cost)

    components = [
        Component(program.bits, block, tuple(groups), tuple(costs))
        for block, (groups, costs) in zip(blocks, members)
    ]
    uncovered = list(program.bits.names(program.classes & ~covered))
    return components, uncovered
