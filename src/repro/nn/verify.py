"""The GraphProgram IR verifier.

:func:`verify_program` takes a compiled
:class:`~repro.nn.compile.GraphProgram` (or its retained
:class:`~repro.nn.compile.ProgramPlan`) and statically proves the three
properties the buffer-arena compiler relies on:

``ir-use-before-def``
    Every operand of a scheduled op is an input/param/constant leaf or
    an op scheduled strictly earlier; outputs and the loss are defined.
``ir-bad-schedule``
    The backward schedule is a topological order of the reversed
    gradient graph — every consumer contributing to a node's gradient
    is processed before the node itself, starting from the loss.
``ir-overwrite-live``
    No write lands in a buffer whose previous occupant is still live:
    each materialized root's storage token may only be reassigned after
    the previous occupant's last read (backward-needed, pinned and
    output values count as read at +infinity; what the backward reads
    is re-derived from the op registry's ``needs_out`` /
    ``needs_inputs`` for every op in the backward schedule, besides the
    plan's own ``needed_val``).  No op may write the
    buffer of a value it reads itself.  The same holds for gradient
    slots over the backward schedule: a gradient is live from the first
    consumer instruction that writes it to its own backward instruction
    (the loss seed from before the first, leaf gradients past the
    last), and two gradients whose live ranges overlap may not share a
    token.  No value or gradient may live in the scratch region, which
    every conv instruction overwrites, and the workspace extents of one
    conv instruction may not overlap each other.

Verification is pure data analysis over the plan — it never executes
the program, so running it on every compile adds compile-time cost
only (under a millisecond per program at the default model config) and
exactly zero replay overhead.

The verifier deliberately re-derives liveness from the schedule and
alias roots rather than trusting the compiler's ``last_use`` table:
the point is to catch the compiler lying to itself.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from .graph import OPS

__all__ = ["Finding", "IR_RULES", "verify_program"]

#: rule ids this verifier can emit.
IR_RULES = (
    "ir-use-before-def",
    "ir-bad-schedule",
    "ir-overwrite-live",
)

#: sentinel read position for values that must survive the whole replay.
_FOREVER = 1 << 60


class Finding(NamedTuple):
    """One unsound plan decision: the rule it breaks, what happened, and
    the node/output it is anchored to."""

    rule: str
    message: str
    symbol: str


def verify_program(program) -> List[Finding]:
    """Statically check one compiled program; returns findings (empty = sound)."""
    plan = getattr(program, "plan", program)
    findings: List[Finding] = []
    sched = plan.sched
    pos: Dict[int, int] = {}

    # -- schedule well-formedness + def-before-use ---------------------
    for index, nid in enumerate(sched):
        if nid in pos:
            findings.append(
                Finding(
                    "ir-use-before-def",
                    f"node {nid} ({plan.ops.get(nid)}) scheduled twice",
                    f"node:{nid}",
                )
            )
            continue
        pos[nid] = index
        if plan.kinds.get(nid) != "op":
            findings.append(
                Finding(
                    "ir-use-before-def",
                    f"scheduled node {nid} is not an op "
                    f"(kind={plan.kinds.get(nid)!r})",
                    f"node:{nid}",
                )
            )
            continue
        for parent in plan.parents.get(nid, ()):
            kind = plan.kinds.get(parent)
            if kind == "op":
                if parent not in pos or pos[parent] >= index:
                    findings.append(
                        Finding(
                            "ir-use-before-def",
                            f"node {nid} ({plan.ops.get(nid)}) reads op "
                            f"{parent} ({plan.ops.get(parent)}) which is "
                            "not defined before it in the schedule",
                            f"node:{nid}",
                        )
                    )
            elif kind is None:
                findings.append(
                    Finding(
                        "ir-use-before-def",
                        f"node {nid} reads unknown node {parent}",
                        f"node:{nid}",
                    )
                )
    for name, nid in plan.outputs.items():
        if plan.kinds.get(nid) == "op" and nid not in pos:
            findings.append(
                Finding(
                    "ir-use-before-def",
                    f"output {name!r} (node {nid}) is never scheduled",
                    f"output:{name}",
                )
            )

    # -- backward schedule topological soundness -----------------------
    grad_pos = {nid: i for i, nid in enumerate(plan.grad_sched)}
    if plan.grad_sched and plan.grad_sched[0] != plan.loss_id:
        findings.append(
            Finding(
                "ir-bad-schedule",
                f"backward schedule starts at node {plan.grad_sched[0]} "
                f"instead of the loss (node {plan.loss_id})",
                "grad-start",
            )
        )
    for nid, index in grad_pos.items():
        if not plan.requires_grad.get(nid, False):
            findings.append(
                Finding(
                    "ir-bad-schedule",
                    f"backward schedule contains node {nid} "
                    f"({plan.ops.get(nid)}) which does not require grad",
                    f"grad-node:{nid}",
                )
            )
        for parent in plan.parents.get(nid, ()):
            if parent in grad_pos and grad_pos[parent] <= index:
                findings.append(
                    Finding(
                        "ir-bad-schedule",
                        f"gradient of node {parent} "
                        f"({plan.ops.get(parent)}) is processed before "
                        f"its consumer {nid} ({plan.ops.get(nid)}) has "
                        "contributed",
                        f"grad-node:{parent}",
                    )
                )

    # -- liveness: last read position per alias root -------------------
    last_read: Dict[int, int] = {}
    for nid in sched:
        if nid not in pos:
            continue
        for parent in plan.parents.get(nid, ()):
            root = plan.root.get(parent, parent)
            last_read[root] = max(last_read.get(root, -1), pos[nid])
    backward_reads = set()
    for nid in plan.grad_sched:
        op = OPS.get(plan.ops.get(nid))
        if op is not None and op.needs_out:
            backward_reads.add(nid)
        if op is not None and op.needs_inputs:
            backward_reads.update(plan.parents.get(nid, ()))
    forever = plan.needed_val | backward_reads | set(plan.outputs.values())
    for nid in forever | {plan.loss_id}:
        root = plan.root.get(nid, nid)
        last_read[root] = _FOREVER
    for root in plan.pinned_roots:
        last_read[root] = _FOREVER

    # -- storage: no write to a slot whose value is still live ---------
    writes_by_token: Dict[int, List[int]] = {}
    for nid in sched:
        if plan.root.get(nid) != nid:
            continue  # views write through their base's storage
        token = plan.buffer_token.get(nid)
        if token is None:
            continue  # unmaterialized (e.g. plan corruption; flagged below)
        writes_by_token.setdefault(token, []).append(nid)
    for token, writers in writes_by_token.items():
        writers.sort(key=lambda nid: pos.get(nid, -1))
        for previous, current in zip(writers, writers[1:]):
            write_pos = pos.get(current, -1)
            live_until = max(last_read.get(previous, -1), pos.get(previous, -1))
            if live_until < write_pos:
                continue  # previous occupant dead before this write
            still = (
                "pinned/backward-needed"
                if last_read.get(previous, -1) >= _FOREVER
                else f"still read at schedule position {live_until}"
            )
            findings.append(
                Finding(
                    "ir-overwrite-live",
                    f"node {current} ({plan.ops.get(current)}) at position "
                    f"{write_pos} overwrites the buffer of node {previous} "
                    f"({plan.ops.get(previous)}), whose value is {still}",
                    f"node:{current}",
                )
            )

    findings.extend(_gradient_slot_findings(plan, grad_pos))
    findings.extend(_scratch_findings(plan))

    # every scheduled non-view op must have materialized storage
    for nid in sched:
        if nid not in pos or plan.kinds.get(nid) != "op":
            continue
        root = plan.root.get(nid, nid)
        if plan.buffer_token.get(root) is None and plan.kinds.get(root) == "op":
            findings.append(
                Finding(
                    "ir-use-before-def",
                    f"node {nid} ({plan.ops.get(nid)}) has no backing "
                    f"buffer (root {root})",
                    f"node:{nid}",
                )
            )

    return findings


def _gradient_slot_findings(plan, grad_pos: Dict[int, int]) -> List[Finding]:
    """Gradients sharing a token must have disjoint backward live ranges,
    re-derived from ``grad_sched`` rather than taken from the compiler."""
    first_write: Dict[int, int] = {}
    for index, nid in enumerate(plan.grad_sched):
        for parent in plan.parents.get(nid, ()):
            if parent in plan.grad_token:
                first_write.setdefault(parent, index)
    by_token: Dict[int, List[tuple]] = {}
    for nid, token in plan.grad_token.items():
        start = -1 if nid == plan.loss_id else first_write.get(nid, -1)
        stop = grad_pos.get(nid, _FOREVER)
        by_token.setdefault(token, []).append((start, stop, nid))
    findings: List[Finding] = []
    # Sorted by start, any overlap shows between two neighbours.
    for ranges in by_token.values():
        ranges.sort()
        for (_, stop, held), (start, _, nid) in zip(ranges, ranges[1:]):
            if start <= stop:
                findings.append(
                    Finding(
                        "ir-overwrite-live",
                        f"gradient of node {nid} ({plan.ops.get(nid)}), "
                        f"written at backward position {start}, shares the "
                        f"slot of the gradient of node {held} "
                        f"({plan.ops.get(held)}), still read at backward "
                        f"position {stop}",
                        f"grad:{nid}",
                    )
                )
    return findings


def _scratch_findings(plan) -> List[Finding]:
    """Nothing but conv workspaces in the scratch region, and no two
    workspaces of one instruction overlapping."""
    findings: List[Finding] = []
    if plan.scratch_token is not None:
        for kind, tokens in (("value", plan.buffer_token), ("gradient", plan.grad_token)):
            for nid, token in tokens.items():
                if token == plan.scratch_token:
                    findings.append(
                        Finding(
                            "ir-overwrite-live",
                            f"the {kind} of node {nid} ({plan.ops.get(nid)}) "
                            "lives in the scratch region, which every conv "
                            "instruction overwrites",
                            f"scratch:{kind}:{nid}",
                        )
                    )
    for label, extents in plan.scratch_extents.items():
        ordered = sorted(extents)  # any overlap shows between neighbours
        for (start, stop), (next_start, next_stop) in zip(ordered, ordered[1:]):
            if next_start < stop:
                findings.append(
                    Finding(
                        "ir-overwrite-live",
                        f"conv instruction {label} has overlapping scratch "
                        f"workspaces [{start}, {stop}) and "
                        f"[{next_start}, {next_stop})",
                        f"scratch:{label}",
                    )
                )
    return findings
