"""GraphProgram IR verifier tests (repro.nn.verify).

The clean direction compiles real programs (an MLP step and the actual
CNN-VAE training step) and asserts zero findings.  The dirty direction
hand-injects each bug class into a copied :class:`ProgramPlan` —
use-before-def schedules, backward disorder, aliasing writes over live
values (a conv2d input the backward reads included) or live gradients,
values or gradients in the conv scratch region, overlapping
workspaces — and asserts the verifier names
the specific ``ir-*`` rule.  A wiring test proves every compiled step runs the pass
at program build time only.  Steps pass a fresh ``object()`` as their
key, so each traces its own graph.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.verify import IR_RULES, verify_program


def _rules(findings):
    return {f.rule for f in findings}


@pytest.fixture(scope="module")
def mlp_plan():
    """One compiled MLP train step's plan (module-scoped: compile once)."""
    model = nn.MLP([6, 12, 1], np.random.default_rng(0))
    opt = nn.Adam(model.parameters(), lr=1e-2)

    def step_fn(x, y):
        diff = model(x) - y
        return {"loss": (diff * diff).mean()}

    step = nn.CompiledTrainStep(step_fn, model.parameters(), object(), optimizer=opt)
    rng = np.random.default_rng(1)
    step(rng.standard_normal((8, 6)), rng.standard_normal((8, 1)))
    (program,) = step._programs.values()
    return program.plan


@pytest.fixture(scope="module")
def cnn_program():
    """One compiled CNN-VAE train step program (conv scratch + grad arena)."""
    from repro.core.vae import CircuitVAEModel, VAEConfig

    model = CircuitVAEModel(
        VAEConfig(n=8, latent_dim=4, base_channels=4, hidden_dim=16),
        np.random.default_rng(2),
    )
    opt = nn.Adam(model.parameters(), lr=1e-3)

    def step_fn(x_pad, grids, eps, costs):
        return model.training_losses(x_pad, grids, eps, costs, beta=1.0, lam=0.1)

    step = nn.CompiledTrainStep(
        step_fn, model.parameters(), object(), optimizer=opt, grad_clip=5.0
    )
    rng = np.random.default_rng(3)
    grids = rng.integers(0, 2, size=(4, 8, 8)).astype(np.float64)
    x_pad = model._pad_grids(grids)
    eps = rng.standard_normal((4, model.config.latent_dim))
    costs = rng.standard_normal(4)
    step(x_pad, grids, eps, costs)
    (program,) = step._programs.values()
    return program


def _grad_live_ranges(plan):
    """Backward live range ``(first write, own instruction)`` of every
    arena gradient (op nodes other than the loss)."""
    own = {nid: i for i, nid in enumerate(plan.grad_sched)}
    first = {}
    for i, nid in enumerate(plan.grad_sched):
        for parent in plan.parents[nid]:
            first.setdefault(parent, i)
    return {
        nid: (first[nid], own[nid])
        for nid in plan.grad_token
        if nid in own and nid != plan.loss_id
    }


class TestCleanPrograms:
    def test_mlp_program_verifies_clean(self, mlp_plan):
        assert verify_program(mlp_plan) == []

    def test_cnn_vae_train_step_verifies_clean(self, cnn_program):
        """The acceptance criterion: the real CNN-VAE step, zero findings."""
        findings = verify_program(cnn_program)
        assert findings == [], [f.message for f in findings]
        # real programs exercise the interesting case: buffer reuse is
        # present, not vacuously absent
        plan = cnn_program.plan
        for tokens in (plan.buffer_token, plan.grad_token):
            assert len(set(tokens.values())) < len(tokens)

    def test_verifier_accepts_program_or_plan(self, mlp_plan):
        # duck-typed: a GraphProgram (with .plan) or a bare plan
        assert verify_program(mlp_plan) == verify_program(
            type("Box", (), {"plan": mlp_plan})()
        )


class TestInjectedBugs:
    def test_use_before_def_on_swapped_schedule(self, mlp_plan):
        plan = mlp_plan.copy()
        # swap a node below one of its op parents
        for j, nid in enumerate(plan.sched):
            op_parents = [
                p
                for p in plan.parents.get(nid, ())
                if plan.kinds.get(p) == "op"
            ]
            if op_parents:
                i = plan.sched.index(op_parents[0])
                plan.sched[i], plan.sched[j] = plan.sched[j], plan.sched[i]
                break
        else:
            pytest.fail("no op-parent edge to swap")
        findings = verify_program(plan)
        assert "ir-use-before-def" in _rules(findings)

    def test_duplicate_scheduling_is_flagged(self, mlp_plan):
        plan = mlp_plan.copy()
        plan.sched = plan.sched + [plan.sched[0]]
        assert "ir-use-before-def" in _rules(verify_program(plan))

    def test_unscheduled_output_is_flagged(self, mlp_plan):
        plan = mlp_plan.copy()
        plan.sched = [nid for nid in plan.sched if nid != plan.loss_id]
        findings = verify_program(plan)
        assert any(
            f.rule == "ir-use-before-def" and f.symbol.startswith("output:")
            for f in findings
        )

    def test_backward_disorder_is_flagged(self, mlp_plan):
        plan = mlp_plan.copy()
        assert len(plan.grad_sched) >= 2, "fixture needs a real backward"
        plan.grad_sched = list(reversed(plan.grad_sched))
        findings = verify_program(plan)
        assert "ir-bad-schedule" in _rules(findings)
        # both failure modes surface: wrong start and parent-before-consumer
        assert any(f.symbol == "grad-start" for f in findings)

    def test_non_grad_node_in_backward_is_flagged(self, mlp_plan):
        plan = mlp_plan.copy()
        no_grad = next(
            nid
            for nid in plan.kinds
            if not plan.requires_grad.get(nid, False)
        )
        plan.grad_sched = plan.grad_sched + [no_grad]
        assert "ir-bad-schedule" in _rules(verify_program(plan))

    def test_aliasing_write_over_live_value_is_flagged(self, mlp_plan):
        plan = mlp_plan.copy()
        pos = {nid: i for i, nid in enumerate(plan.sched)}
        pinned = [
            r
            for r in plan.pinned_roots
            if r in plan.buffer_token and r in pos
        ]
        assert pinned, "fixture needs a pinned, materialized root"
        victim = min(pinned, key=pos.__getitem__)
        overwriter = next(
            nid
            for nid in reversed(plan.sched)
            if plan.root.get(nid) == nid
            and nid in plan.buffer_token
            and pos[nid] > pos[victim]
        )
        plan.buffer_token[overwriter] = plan.buffer_token[victim]
        findings = [
            f for f in verify_program(plan) if f.rule == "ir-overwrite-live"
        ]
        assert findings, "aliased write over a pinned value must be flagged"
        assert "pinned/backward-needed" in findings[0].message

    def test_write_into_own_operand_buffer_is_flagged(self, mlp_plan):
        plan = mlp_plan.copy()
        # an op writing the buffer it reads from is an in-place overwrite
        producer, consumer = next(
            (p, nid)
            for nid in plan.sched
            if plan.root.get(nid) == nid and nid in plan.buffer_token
            for p in plan.parents.get(nid, ())
            if plan.root.get(p) == p and p in plan.buffer_token
        )
        plan.buffer_token[consumer] = plan.buffer_token[producer]
        findings = [
            f for f in verify_program(plan) if f.rule == "ir-overwrite-live"
        ]
        assert any(f.symbol == f"node:{consumer}" for f in findings)

    def test_legitimate_reuse_of_dead_slot_is_not_flagged(self, mlp_plan):
        # the compiler's own arena reuse produces shared tokens between
        # dead and live occupants; the clean fixture must already contain
        # at least one such pair or the rule above proves nothing.
        tokens = list(mlp_plan.buffer_token.values())
        assert len(set(tokens)) < len(tokens)
        assert verify_program(mlp_plan) == []

    def test_gradients_sharing_a_slot_while_live_are_flagged(self, cnn_program):
        plan = cnn_program.plan.copy()
        ranges = _grad_live_ranges(plan)
        # a node and its parent: the parent's gradient is written by the
        # node's own backward instruction, while the node's is still read
        node, parent = next(
            (nid, p)
            for nid in plan.grad_sched
            for p in plan.parents[nid]
            if nid in ranges and p in ranges
            and plan.grad_token[p] != plan.grad_token[nid]
        )
        plan.grad_token[parent] = plan.grad_token[node]
        findings = [
            f for f in verify_program(plan) if f.rule == "ir-overwrite-live"
        ]
        assert f"grad:{parent}" in [f.symbol for f in findings]

    def test_value_in_scratch_region_is_flagged(self, cnn_program):
        plan = cnn_program.plan.copy()
        assert plan.scratch_token is not None
        victim = next(iter(plan.buffer_token))
        plan.buffer_token[victim] = plan.scratch_token
        findings = verify_program(plan)
        assert any(
            f.rule == "ir-overwrite-live" and f.symbol == f"scratch:value:{victim}"
            for f in findings
        )

    def test_gradient_in_scratch_region_is_flagged(self, cnn_program):
        plan = cnn_program.plan.copy()
        victim = next(iter(plan.grad_token))
        plan.grad_token[victim] = plan.scratch_token
        assert [f.symbol for f in verify_program(plan)] == [
            f"scratch:gradient:{victim}"
        ]

    def test_conv2d_input_in_a_reused_arena_slot_is_flagged(self):
        """conv2d's backward reads its input (unfolded again for dW), so
        a plan that hands the input's slot to a later value is flagged.
        The input here is a bias add no other VJP reads, and the plan's
        own ``needed_val`` and pins are stripped of it: the verifier
        re-derives the read from the registry's ``needs_inputs``."""
        from repro.nn import functional as F

        rng = np.random.default_rng(5)
        w1 = nn.Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        bias = nn.Tensor(rng.standard_normal(4), requires_grad=True)
        w2 = nn.Tensor(rng.standard_normal((3, 4, 3, 3)), requires_grad=True)

        def step_fn(x):
            h = F.conv2d(x, w1, bias, stride=1, padding=1)
            out = F.conv2d(h, w2, stride=2, padding=1)
            return {"loss": (out * out).sum()}

        step = nn.CompiledTrainStep(step_fn, [w1, bias, w2], object())
        step(rng.standard_normal((2, 2, 6, 6)))
        (program,) = step._programs.values()
        plan = program.plan.copy()
        assert verify_program(plan) == []
        conv2 = max(nid for nid, op in plan.ops.items() if op == "conv2d")
        victim = plan.parents[conv2][0]
        assert plan.ops[victim] == "add" and victim in plan.needed_val
        later = next(
            nid for nid in plan.sched[plan.sched.index(conv2) + 1 :]
            if nid in plan.buffer_token and plan.root[nid] == nid
        )
        plan.needed_val.discard(victim)
        plan.pinned_roots.discard(victim)
        plan.buffer_token[later] = plan.buffer_token[victim]
        findings = verify_program(plan)
        assert [(f.rule, f.symbol) for f in findings] == [
            ("ir-overwrite-live", f"node:{later}")
        ]
        assert "pinned/backward-needed" in findings[0].message

    def test_overlapping_workspaces_of_one_kernel_are_flagged(self, cnn_program):
        plan = cnn_program.plan.copy()
        label = next(
            label for label, extents in plan.scratch_extents.items()
            if len(extents) >= 2
        )
        (start, stop), (_, next_stop) = plan.scratch_extents[label][:2]
        plan.scratch_extents[label][1] = (stop - 1, next_stop)
        assert [f.symbol for f in verify_program(plan)] == [f"scratch:{label}"]

    def test_legitimate_slot_reuse_is_not_flagged(self, cnn_program):
        plan = cnn_program.plan.copy()
        # every conv instruction's workspace starts at offset 0 of the
        # one region: extents of different instructions overlap freely
        starts = [extents[0][0] for extents in plan.scratch_extents.values()]
        assert len(starts) > 2 and set(starts) == {0}
        # a gradient may move into a slot whose occupants are all dead
        # before it is written
        ranges = _grad_live_ranges(plan)
        holders = {}
        for nid in ranges:
            holders.setdefault(plan.grad_token[nid], []).append(ranges[nid])
        token, late = next(
            (token, nid)
            for token, occupied in holders.items()
            for nid in ranges
            if plan.grad_token[nid] != token
            and all(stop < ranges[nid][0] for _, stop in occupied)
        )
        plan.grad_token[late] = token
        assert verify_program(plan) == []

    def test_all_rule_ids_are_documented(self):
        assert set(IR_RULES) == {
            "ir-use-before-def",
            "ir-bad-schedule",
            "ir-overwrite-live",
        }


class TestCompileWiring:
    def test_verify_runs_at_compile_time_only(self, monkeypatch):
        calls = []
        import repro.nn.verify as ir_mod

        real = ir_mod.verify_program

        def spy(program):
            calls.append(1)
            return real(program)

        monkeypatch.setattr(ir_mod, "verify_program", spy)

        model = nn.MLP([4, 8, 1], np.random.default_rng(4))
        opt = nn.Adam(model.parameters(), lr=1e-2)

        def step_fn(x, y):
            diff = model(x) - y
            return {"loss": (diff * diff).mean()}

        step = nn.CompiledTrainStep(
            step_fn, model.parameters(), object(), optimizer=opt
        )
        rng = np.random.default_rng(5)
        X, Y = rng.standard_normal((8, 4)), rng.standard_normal((8, 1))
        for _ in range(4):
            step(X, Y)
        # one verification at trace time, none per replay
        assert calls == [1]
        assert step.stats.traces == 1 and step.stats.replays == 4

    def test_rejected_program_raises_compile_unsupported(self, monkeypatch):
        import repro.nn.verify as ir_mod
        from repro.nn.verify import Finding

        monkeypatch.setattr(
            ir_mod,
            "verify_program",
            lambda program: [
                Finding(
                    rule="ir-overwrite-live",
                    message="injected",
                    symbol="",
                )
            ],
        )
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        step = nn.CompiledTrainStep(lambda: {"loss": (a * a).sum()}, [a], object())
        with pytest.raises(nn.CompileUnsupported, match="ir-overwrite-live"):
            step()
        assert step.stats.traces == 0 and not step._programs
        (entry,) = (
            entry for key, entry in nn.compile._TRACES.items() if key[0] is step.key
        )
        assert entry.kept is None
