"""Tests for the graph IR (repro.nn.graph) and compiler (repro.nn.compile).

Every step here passes a fresh ``object()`` as its key, so it shares its
traces with no other step and traces its own graph.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.graph import OPS, Trace, active_trace
from repro.nn.tensor import _promotion_warned


class TestRegistry:
    def test_ops_carry_vjp_rules_as_data(self):
        for name, op in OPS.items():
            assert callable(op.forward), name
            assert callable(op.vjp), name

    def test_eager_tensors_record_op_ids_not_closures(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        out = (a * 3.0).exp()
        assert out._op == "exp"
        assert "_backward" not in nn.Tensor.__slots__  # no closure slot
        assert out._parents[0]._op == "mul"

    def test_backward_uses_registry_rules(self):
        a = nn.Tensor([0.5, -1.5], requires_grad=True)
        (a.relu() * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0])


class TestTrace:
    def test_records_nodes_with_parent_ids(self):
        p = nn.Tensor([1.0, 2.0], requires_grad=True)
        x = nn.Tensor([3.0, 4.0])
        with Trace(params=[p], inputs=[x]) as tr:
            out = (p * x + 1.0).sum()
        kinds = [node.kind for node in tr.nodes]
        assert kinds.count("param") == 1
        assert kinds.count("input") == 1
        assert kinds.count("constant") == 1  # the 1.0 literal
        ops = [node.op for node in tr.nodes if node.kind == "op"]
        assert ops == ["mul", "add", "sum"]
        assert tr.tensor_nodes[id(out)] == tr.nodes[-1].id

    def test_trace_is_scoped_and_thread_local(self):
        assert active_trace() is None
        with Trace() as tr:
            assert active_trace() is tr
        assert active_trace() is None

    def test_array_index_raises_under_trace(self):
        x = nn.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        for idx in (np.array([0, 2]), (np.array([0, 2]), 1), (slice(None), [1, 3])):
            with Trace(params=[x]):
                with pytest.raises(nn.CompileUnsupported, match="array index"):
                    x[idx]
        with Trace(params=[x]) as tr:
            x[1], x[1:, ::2], x[None, ..., 0], x[np.int64(2)]
        assert [node.op for node in tr.nodes if node.kind == "op"] == ["getitem"] * 4
        # Untraced eager indexing is unchanged, fancy indices included.
        np.testing.assert_array_equal(x[np.array([0, 2])].data, x.data[[0, 2]])

    def test_compile_rejects_unsupported_trace(self):
        """A gather whose positions come from the step's data: traced,
        the index array would be baked into the program, and a replay on
        new data would silently gather the first step's positions (on
        this graph, actions [2, 0, 1, 2] replayed to the first step's
        loss 6.68 where eager gives 14.31)."""
        rng = np.random.default_rng(0)
        q = nn.Tensor(rng.standard_normal((4, 3)), requires_grad=True)

        def step(actions, targets):
            diff = q[np.arange(4), actions.data.astype(int)] - targets
            return {"loss": (diff * diff).sum()}

        actions, targets = np.array([0.0, 1.0, 2.0, 0.0]), rng.standard_normal(4)
        eager = step(nn.Tensor(actions), nn.Tensor(targets))["loss"].item()
        assert eager > 0.0  # the same step runs untraced
        compiled = nn.CompiledTrainStep(step, [q], object())
        with pytest.raises(nn.CompileUnsupported, match="array index"):
            compiled(actions, targets)
        assert compiled.stats.traces == 0 and not compiled._programs


class TestCompiledTrainStep:
    def _mlp_setup(self, seed=5):
        model = nn.MLP([6, 16, 16, 1], np.random.default_rng(seed))
        opt = nn.Adam(model.parameters(), lr=1e-2)
        return model, opt

    def test_matches_eager_bitwise_on_mlp(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((32, 6))
        Y = rng.standard_normal((32, 1))

        m1, o1 = self._mlp_setup()
        eager = []
        for _ in range(8):
            diff = m1(nn.Tensor(X)) - nn.Tensor(Y)
            loss = (diff * diff).mean()
            o1.zero_grad()
            loss.backward()
            nn.clip_grad_norm(m1.parameters(), 5.0)
            o1.step()
            eager.append(loss.item())

        m2, o2 = self._mlp_setup()

        def step_fn(x, y):
            diff = m2(x) - y
            return {"loss": (diff * diff).mean()}

        step = nn.CompiledTrainStep(
            step_fn, m2.parameters(), object(), optimizer=o2, grad_clip=5.0
        )
        compiled = [step(X, Y)["loss"] for _ in range(8)]
        assert compiled == eager
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_counters_and_arena(self):
        m, o = self._mlp_setup()

        def step_fn(x, y):
            diff = m(x) - y
            return {"loss": (diff * diff).mean()}

        step = nn.CompiledTrainStep(step_fn, m.parameters(), object(), optimizer=o)
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((16, 6)), rng.standard_normal((16, 1))
        for _ in range(3):
            step(X, Y)
        stats = step.stats
        assert stats.traces == 1
        assert stats.replays == 3
        assert stats.arena_reused > 0
        assert stats.buffers + stats.arena_slots > 0

    def test_shape_guarded_replay_retraces_on_new_signature(self):
        m, o = self._mlp_setup()

        def step_fn(x, y):
            diff = m(x) - y
            return {"loss": (diff * diff).mean()}

        step = nn.CompiledTrainStep(step_fn, m.parameters(), object(), optimizer=o)
        rng = np.random.default_rng(2)
        step(rng.standard_normal((8, 6)), rng.standard_normal((8, 1)))
        step(rng.standard_normal((8, 6)), rng.standard_normal((8, 1)))
        assert step.stats.traces == 1
        one = step.stats.as_dict()
        step(rng.standard_normal((12, 6)), rng.standard_normal((12, 1)))
        assert step.stats.traces == 2
        # Per-program counters accumulate across compiles: the second
        # signature builds the same graph, so every count doubles.
        two = step.stats.as_dict()
        for name in ("nodes", "buffers", "arena_slots", "arena_reused"):
            assert one[name] > 0, name
            assert two[name] == 2 * one[name], name

    def test_requires_loss_key_and_scalar_outputs(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        step = nn.CompiledTrainStep(lambda: {"nope": a.sum()}, [a], object())
        with pytest.raises(nn.CompileUnsupported):
            step()
        vector = nn.CompiledTrainStep(
            lambda: {"loss": a.sum(), "vec": a * 2.0}, [a], object()
        )
        with pytest.raises(nn.CompileUnsupported):
            vector()

    def test_params_see_inplace_updates_between_replays(self):
        """Replay reads parameter storage live — no stale weight copies."""
        w = nn.Tensor([2.0], requires_grad=True)
        step = nn.CompiledTrainStep(lambda x: {"loss": (w * x).sum()}, [w], object())
        assert step(np.array([3.0]))["loss"] == 6.0
        w.data[...] = 5.0
        assert step(np.array([3.0]))["loss"] == 15.0

    def test_vae_losses_compiled_equals_eager(self):
        """The real CircuitVAE step graph: conv encoder/decoder + 3 losses."""
        from repro.core.vae import CircuitVAEModel, VAEConfig

        rng = np.random.default_rng(3)
        grids = (rng.random((8, 8, 8)) > 0.5).astype(float)
        eps = rng.standard_normal((8, 6))
        costs = rng.standard_normal(8)

        def build():
            return CircuitVAEModel(
                VAEConfig(n=8, latent_dim=6, base_channels=4, hidden_dim=16),
                np.random.default_rng(9),
            )

        m1 = build()
        o1 = nn.Adam(m1.parameters(), lr=1e-3)
        x_pad = m1._pad_grids(grids)
        eager = []
        for _ in range(3):
            outs = m1.training_losses(
                nn.Tensor(x_pad), nn.Tensor(grids), nn.Tensor(eps), nn.Tensor(costs),
                beta=0.01, lam=10.0,
            )
            o1.zero_grad()
            outs["loss"].backward()
            nn.clip_grad_norm(m1.parameters(), 5.0)
            o1.step()
            eager.append({k: v.item() for k, v in outs.items()})

        m2 = build()
        o2 = nn.Adam(m2.parameters(), lr=1e-3)
        step = nn.CompiledTrainStep(
            lambda x, t, e, c: m2.training_losses(x, t, e, c, beta=0.01, lam=10.0),
            m2.parameters(),
            object(),
            optimizer=o2,
            grad_clip=5.0,
        )
        compiled = [step(x_pad, grids, eps, costs) for _ in range(3)]
        for e_step, c_step in zip(eager, compiled):
            for key in ("loss", "reconstruction", "kl", "cost"):
                assert abs(e_step[key] - c_step[key]) <= 1e-10 * max(
                    1.0, abs(e_step[key])
                )
        assert step.stats.fast_kernels > 0
        assert step.stats.arena_reused > 0


class TestShardedStep:
    """``shards=2``: compiled half-batch replays vs the eager reference."""

    @pytest.mark.parametrize("batch", [8, 7])  # 7 -> 4 + 3: size weights
    def test_matches_sharded_eager_fallback(self, batch):
        from helpers import eager_train_step
        from repro.core.training import TrainConfig
        from repro.core.vae import CircuitVAEModel, VAEConfig

        config = TrainConfig(beta=0.01, lam=10.0, grad_clip=5.0)
        rng = np.random.default_rng(4)
        grids = (rng.random((batch, 8, 8)) > 0.5).astype(float)
        eps = rng.standard_normal((batch, 6))
        costs = rng.standard_normal(batch)

        def build():
            return CircuitVAEModel(
                VAEConfig(n=8, latent_dim=6, base_channels=4, hidden_dim=16),
                np.random.default_rng(9),
            )

        m1 = build()
        o1 = nn.Adam(m1.parameters(), lr=1e-3)
        arrays = (m1._pad_grids(grids), grids, eps, costs)
        eager = [eager_train_step(m1, o1, config, arrays) for _ in range(3)]

        m2 = build()
        o2 = nn.Adam(m2.parameters(), lr=1e-3)
        step = nn.CompiledTrainStep(
            lambda x, t, e, c: m2.training_losses(
                x, t, e, c, beta=config.beta, lam=config.lam
            ),
            m2.parameters(),
            object(),
            optimizer=o2,
            grad_clip=config.grad_clip,
            shards=2,
        )
        compiled = [step(*arrays) for _ in range(3)]
        assert step.stats.replays == 3
        for e_step, c_step in zip(eager, compiled):
            assert e_step.keys() == c_step.keys()
            for key in e_step:
                np.testing.assert_allclose(
                    c_step[key], e_step[key], rtol=1e-12, atol=1e-14, err_msg=key
                )
        for (name, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_allclose(
                p2.data, p1.data, rtol=1e-12, atol=1e-14, err_msg=name
            )

    def test_shard_slices(self):
        assert nn.shard_slices(8, 2) == [slice(0, 4), slice(4, 8)]
        assert nn.shard_slices(7, 2) == [slice(0, 4), slice(4, 7)]
        assert nn.shard_slices(1, 2) == [slice(0, 1)]
        assert nn.shard_slices(5, 1) == [slice(0, 5)]


def _normal(shape):
    return lambda rng: rng.standard_normal(shape)


#: op name -> (parameter initializers, forward over the parameters).
#: Broadcast operands exercise the unbroadcast path of the generic VJP.
_ONE_OP_STEPS = {
    "add": ((_normal((3, 4)), _normal((4,))), lambda a, b: a + b),
    "sub": ((_normal((3, 4)), _normal((3, 1))), lambda a, b: a - b),
    "mul": ((_normal((3, 4)), _normal((1, 4))), lambda a, b: a * b),
    "neg": ((_normal((3, 4)),), lambda a: -a),
    "exp": ((_normal((3, 4)),), lambda a: a.exp()),
    "abs": ((_normal((3, 4)),), lambda a: a.abs()),
    "relu": ((_normal((3, 4)),), lambda a: a.relu()),
    "softplus": ((_normal((3, 4)),), lambda a: a.softplus()),
    "sum": ((_normal((3, 4)),), lambda a: a.sum(axis=1)),
    "matmul": ((_normal((3, 4)), _normal((4, 5))), lambda a, b: a @ b),
    "reshape": ((_normal((3, 4)),), lambda a: a.reshape(4, 3)),
    "transpose": ((_normal((3, 4)),), lambda a: a.transpose(1, 0)),
    "getitem": ((_normal((3, 4)),), lambda a: a[1:, ::2]),
    "conv2d": (
        (_normal((2, 3, 6, 6)), _normal((4, 3, 3, 3))),
        lambda x, w: nn.functional.conv2d(x, w, stride=2, padding=1),
    ),
    "conv_transpose2d": (
        (_normal((2, 4, 3, 3)), _normal((4, 3, 4, 4))),
        lambda x, w: nn.functional.conv_transpose2d(x, w, stride=2, padding=1),
    ),
}


def test_one_op_steps_cover_the_registry():
    assert set(_ONE_OP_STEPS) == set(OPS)


#: ops the compiler replays through its own GEMM kernels; they differ
#: from the eager reference in summation order only (~1 ulp), so they are
#: held to the compile-time verify tolerance instead of bitwise equality.
_GEMM_KERNEL_OPS = {"conv2d", "conv_transpose2d"}


def _assert_matches_eager(name, got, want):
    if name in _GEMM_KERNEL_OPS:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(OPS))
def test_one_op_compiled_step_is_bitwise_eager(name):
    """Every registry op compiles, and its replayed loss and parameter
    gradients equal the eager tape's exactly: every non-conv node runs
    the same registry VJP eager runs."""
    inits, forward = _ONE_OP_STEPS[name]
    rng = np.random.default_rng(7)
    values = [init(rng) for init in inits]
    out_shape = forward(*[nn.Tensor(v) for v in values]).shape
    weight = rng.standard_normal(out_shape)  # non-uniform upstream gradient

    def step_fn(*params):
        return {"loss": (forward(*params) * weight).sum()}

    eager_params = [nn.Tensor(v.copy(), requires_grad=True) for v in values]
    eager_loss = step_fn(*eager_params)["loss"]
    eager_loss.backward()

    params = [nn.Tensor(v.copy(), requires_grad=True) for v in values]
    step = nn.CompiledTrainStep(lambda: step_fn(*params), params, object())
    for _ in range(2):  # the compiling call, then a pure replay
        for p in params:
            p.grad = None
        _assert_matches_eager(name, step()["loss"], eager_loss.item())
        for p, e in zip(params, eager_params):
            _assert_matches_eager(name, p.grad, e.grad)
    assert step.stats.traces == 1
    (program,) = step._programs.values()
    assert name in program.plan.ops.values()


class TestDtypeNormalization:
    def _reset_warning(self):
        _promotion_warned[1][0] = False

    def test_float32_tensors_keep_their_dtype(self):
        x = nn.Tensor(np.ones(3, dtype=np.float32))
        assert x.dtype == np.float32
        assert (x * 2.0).dtype == np.float32  # python scalar adopts f32
        assert x.exp().dtype == np.float32

    def test_mixed_dtype_promotes_to_float64_and_warns_once(self):
        self._reset_warning()
        a = nn.Tensor(np.ones(3, dtype=np.float32))
        b = nn.Tensor(np.ones(3))
        with pytest.warns(RuntimeWarning, match="mixed float32/float64"):
            out = a + b
        assert out.dtype == np.float64
        # Second mixed op: silent (warned once per process).
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _ = a * b

    def test_gradients_follow_tensor_dtype(self):
        self._reset_warning()
        x = nn.Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.dtype == np.float32

    def test_default_remains_float64(self):
        assert nn.Tensor([1, 2, 3]).dtype == np.float64
        assert nn.Tensor(np.ones(2, dtype=np.int64)).dtype == np.float64


class TestCompilerRobustness:
    def test_padding_beyond_kernel_compiles_and_matches_eager(self):
        """padding >= kernel once crashed the stride-1 dx kernel: the
        graph compiles, and its loss and gradients are eager's."""
        from repro.nn import functional as F

        rng = np.random.default_rng(0)
        x = nn.Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        w = nn.Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.3, requires_grad=True)

        def fn():
            inner = F.conv2d(x, w, stride=1, padding=1)
            out = F.conv2d(inner, w, stride=1, padding=4)
            return {"loss": (out * out).sum()}

        loss = fn()["loss"]
        loss.backward()
        eager_grads = [x.grad, w.grad]
        x.zero_grad(); w.zero_grad()
        step = nn.CompiledTrainStep(fn, [x, w], object())
        for _ in range(2):  # the compiling call, then a pure replay
            compiled_loss = step()["loss"]
            np.testing.assert_allclose(compiled_loss, loss.item(), rtol=1e-12)
            for tensor, eager in zip((x, w), eager_grads):
                np.testing.assert_allclose(tensor.grad, eager, rtol=1e-10, atol=1e-12)
        assert step.stats.traces == 1 and step.stats.replays == 2


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _tap_kernels(x_shape, w_shape, padding):
    """One tap-kernel conv2d forward + backward pair (needing dx) on one
    scratch region, as a program builds them."""
    from repro.nn import compile as compile_mod
    from repro.nn.graph import Node

    oh = x_shape[2] + 2 * padding - w_shape[2] + 1
    ow = x_shape[3] + 2 * padding - w_shape[3] + 1
    out_shape = (x_shape[0], w_shape[0], oh, ow)
    node = Node(0, "op", "conv2d", (1, 2), {"stride": 1, "padding": padding},
                out_shape, np.dtype(np.float64), True)
    fwd_ws, bwd_ws = compile_mod._Workspace(), compile_mod._Workspace()
    out = np.empty(out_shape)
    forward = compile_mod._TapConv2dForward(node, x_shape, w_shape, out, fwd_ws)
    backward = compile_mod._TapConv2dBackward(forward, True, bwd_ws)
    region = np.empty(max(fwd_ws.size, bwd_ws.size))
    forward.bind(region)
    backward.bind(region)
    return forward, backward, region


class TestTapConv2d:
    """Narrowing stride-1 conv2d (O < C) replays through the tap kernel."""

    @pytest.mark.parametrize("out_ch", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_tap_kernel_matches_reference(self, out_ch, padding):
        """Forward, dx and dW against ``repro.nn.conv`` on a non-square
        grid; padding 2 exceeds kh - 1.  The scratch region is poisoned
        between the forward and the backward, which must read nothing
        the forward left there (the stacked weights included)."""
        rng = np.random.default_rng(out_ch * 10 + padding)
        x = rng.standard_normal((3, 4, 7, 5))
        w = rng.standard_normal((out_ch, 4, 3, 3))
        want = nn.conv.conv2d_forward(x, w, 1, padding)
        g = rng.standard_normal(want.shape)
        want_dx, want_dw = nn.conv.conv2d_backward(g, x, w, 1, padding)

        forward, backward, region = _tap_kernels(x.shape, w.shape, padding)
        for _ in range(2):  # a replay must not depend on the last one
            region.fill(np.nan)
            got = forward(x, w).copy()
            region.fill(np.nan)
            dx, dw = backward(g, None, w)
            assert _rel_err(got, want) < 1e-12
            assert _rel_err(dx, want_dx) < 1e-12
            assert _rel_err(dw, want_dw) < 1e-12
        assert forward.kept is forward.padded
        assert forward.padded.shape == (3, 4, (7 + 2 * padding) * (5 + 2 * padding) + 2)

    def test_program_replays_match_eager_on_new_batches(self):
        """A narrowing conv between a widening stride-1 conv and a
        stride-2 conv: the compiled program, replayed on two different
        batches, gives eager's loss and gradients each time."""
        from repro.nn import functional as F

        rng = np.random.default_rng(4)
        params = [
            nn.Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
            for shape in ((6, 2, 3, 3), (3, 6, 3, 3), (4, 3, 3, 3))
        ]
        weight = nn.Tensor(rng.standard_normal((5, 4, 4, 3)))

        def step_fn(x):
            h = F.conv2d(x, params[0], stride=1, padding=1).relu()
            h = F.conv2d(h, params[1], stride=1, padding=1).relu()
            h = F.conv2d(h, params[2], stride=2, padding=1)
            return {"loss": (h * weight).sum()}

        step = nn.CompiledTrainStep(step_fn, params, object())
        for seed in (1, 2):
            x = np.random.default_rng(seed).standard_normal((5, 2, 8, 6))
            got = step(x)["loss"]
            got_grads = [p.grad.copy() for p in params]
            for p in params:
                p.grad = None
            eager = step_fn(nn.Tensor(x))["loss"]
            eager.backward()
            np.testing.assert_allclose(got, eager.item(), rtol=1e-12)
            for g, p in zip(got_grads, params):
                assert _rel_err(g, p.grad) < 1e-12
                p.grad = None
        assert step.stats.traces == 1 and step.stats.replays == 2
        (program,) = step._programs.values()
        kinds = sorted(
            type(kernel).__name__ for kernel, _ in program._conv_kernels.values()
        )
        assert kinds == sorted([
            "_Conv2dForward", "_Conv2dBackward", "_TapConv2dForward",
            "_TapConv2dBackward", "_Conv2dForward", "_Conv2dBackward",
        ])

    def test_cols_bytes_of_the_default_n32_model(self):
        """``cols_bytes`` is what the conv2d forwards keep: the unfold
        columns of the three encoder convs and the padded input of the
        narrowing output conv (its columns would be 9x that)."""
        from repro.core.vae import CircuitVAEModel, VAEConfig

        model = CircuitVAEModel(VAEConfig(n=32), np.random.default_rng(0))
        step = nn.CompiledTrainStep(
            lambda x, t, e, c: model.training_losses(x, t, e, c, beta=0.01, lam=10.0),
            model.parameters(),
            object(),
        )
        batch = 2
        rng = np.random.default_rng(1)
        grids = (rng.random((batch, 32, 32)) > 0.5).astype(float)
        step(model._pad_grids(grids), grids,
             rng.standard_normal((batch, 24)), rng.standard_normal(batch))

        def cols(layer, side):  # im2col: (B, C*kh*kw, oh*ow)
            out_side = (side + 2 * layer.padding - 3) // layer.stride + 1
            return batch * layer.weight.shape[1] * 9 * out_side**2

        padded_side = 32 + 2 * model.dec_out.padding  # tap: (B, C, Hp*Wp + kw - 1)
        tap = batch * model.dec_out.weight.shape[1] * (padded_side**2 + 2)
        expected = 8 * (
            cols(model.enc_conv1, 32) + cols(model.enc_conv2, 32)
            + cols(model.enc_conv3, 16) + tap
        )
        assert step.stats.cols_bytes == expected
        assert cols(model.dec_out, 32) > 7 * tap


def _small_vae_step(shards=1, adam=False):
    """A compiled CNN-VAE training step at a small config: conv2d at
    stride 1 and 2 with padding, conv_transpose2d, and the dense heads.
    Without ``adam`` the parameters stay put, so replays on one batch
    must repeat exactly."""
    from repro.core.vae import CircuitVAEModel, VAEConfig

    model = CircuitVAEModel(
        VAEConfig(n=8, latent_dim=6, base_channels=4, hidden_dim=16),
        np.random.default_rng(9),
    )
    step = nn.CompiledTrainStep(
        lambda x, t, e, c: model.training_losses(x, t, e, c, beta=0.01, lam=10.0),
        model.parameters(),
        object(),
        optimizer=nn.Adam(model.parameters(), lr=1e-3) if adam else None,
        shards=shards,
    )
    return model, step


def _vae_batch(model, seed, batch=6):
    rng = np.random.default_rng(seed)
    grids = (rng.random((batch, 8, 8)) > 0.5).astype(float)
    return (
        model._pad_grids(grids),
        grids,
        rng.standard_normal((batch, 6)),
        rng.standard_normal(batch),
    )


def _replay(step, model, arrays):
    """Outputs and parameter gradients of one step, copied out."""
    outputs = step(*arrays)
    return outputs, [p.grad.copy() for p in model.parameters()]


def _assert_bitwise(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1], want[1]):
        np.testing.assert_array_equal(g, w)


class TestSharedStorage:
    """Conv workspaces share one scratch region per program, gradients
    share arena slots, and col2im index tables are shared per step."""

    def test_replays_do_not_see_stale_workspaces(self):
        """Batch A, then B, then A again through one program: each step
        equals a freshly compiled program's on the same batch, so no
        kernel reads what another left in the shared scratch (e.g. the
        zero border of a padded unfold)."""
        model, step = _small_vae_step()
        batches = {"A": _vae_batch(model, 1), "B": _vae_batch(model, 2)}
        for name in ("A", "B", "A"):
            got = _replay(step, model, batches[name])
            fresh_model, fresh = _small_vae_step()
            _assert_bitwise(got, _replay(fresh, fresh_model, batches[name]))
        assert step.stats.traces == 1

    def test_two_shards_are_bitwise_equal_at_core_budget_1_and_2(self, monkeypatch):
        """One trace and one eager verify either way; the worker shard's
        program is built from shard 0's trace and IR-verified only."""
        import repro.nn.compile as compile_mod

        calls = {"eager": 0, "ir": 0}
        verify = compile_mod.GraphProgram.verify
        verify_program = compile_mod.ir_verify.verify_program

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(compile_mod.GraphProgram, "verify", counted("eager", verify))
        monkeypatch.setattr(
            compile_mod.ir_verify, "verify_program", counted("ir", verify_program)
        )
        results = {}
        for cores in (1, 2):
            monkeypatch.setattr(compile_mod, "core_budget", lambda cores=cores: cores)
            calls.update(eager=0, ir=0)
            model, step = _small_vae_step(shards=2, adam=True)
            results[cores] = [
                _replay(step, model, _vae_batch(model, seed)) for seed in (1, 2, 1)
            ]
            assert step.stats.traces == 1
            assert calls == {"eager": 1, "ir": cores}
            assert len(step._programs) == cores
        for serial, overlapped in zip(results[1], results[2]):
            _assert_bitwise(overlapped, serial)

    def test_footprint_counters(self):
        model, step = _small_vae_step()
        step(*_vae_batch(model, 1))
        (program,) = step._programs.values()
        plan, stats = program.plan, step.stats
        every_gradient = sum(8 * int(np.prod(plan.shapes[nid])) for nid in plan.grad_token)
        assert 0 < stats.grad_bytes < every_gradient
        largest = max(
            stop for extents in plan.scratch_extents.values() for _, stop in extents
        )
        assert stats.scratch_bytes == 8 * largest == program._scratch.nbytes
        assert stats.value_bytes > 0 and stats.cols_bytes > 0 and stats.shared_bytes > 0

    def test_shard_programs_share_col2im_tables(self, monkeypatch):
        import repro.nn.compile as compile_mod

        monkeypatch.setattr(compile_mod, "core_budget", lambda: 2)
        model, step = _small_vae_step(shards=2)
        step(*_vae_batch(model, 1))
        before = {key: table.copy() for key, table in step._tables.items()}
        step(*_vae_batch(model, 2))
        programs = list(step._programs.values())
        assert len(programs) == 2
        used = [
            {id(kernel.fold.index) for kernel, _ in p._conv_kernels.values() if hasattr(kernel, "fold")}
            for p in programs
        ]
        assert used[0] and used[0] == used[1] == {id(t) for t in step._tables.values()}
        # replays on both threads leave the shared tables as built
        for key, table in step._tables.items():
            np.testing.assert_array_equal(table, before[key])
        assert step.stats.shared_bytes == sum(t.nbytes for t in step._tables.values())
        # ...while each program keeps its own scratch region
        assert programs[0]._scratch is not programs[1]._scratch


class TestRelease:
    """``release()`` drops every program; the next call rebuilds from
    the kept trace."""

    def test_release_drops_programs_and_gradient_buffers(self):
        """On the one-shard path ``.grad`` is a program buffer; after
        release no parameter keeps one alive, and the program (with its
        mapped storage) is dead without a cyclic collection."""
        import gc
        import weakref

        model, step = _small_vae_step()
        batch = _vae_batch(model, 1)
        step(*batch)
        (program,) = step._programs.values()
        grads = dict(program.param_grads())
        assert all(p.grad is grads[p] for p in model.parameters())
        ref = weakref.ref(program)
        del program, grads
        gc.disable()
        try:
            step.release()
            assert ref() is None
        finally:
            gc.enable()
        assert all(p.grad is None for p in model.parameters())
        assert not step._programs and not step._tables
        # The rebuilt program replays like a fresh compile, with no retrace.
        got = _replay(step, model, batch)
        fresh_model, fresh = _small_vae_step()
        _assert_bitwise(got, _replay(fresh, fresh_model, batch))
        assert step.stats.traces == 1

    def test_release_drops_shard_sums(self):
        """On the two-shard path ``.grad`` is a :class:`nn.ShardMean`
        sum; release drops the sums and points no parameter at them, and
        the next call equals a fresh step's bitwise."""
        model, step = _small_vae_step(shards=2)
        batch = _vae_batch(model, 1)
        step(*batch)
        sums = list(step._combined._sums)
        assert all(any(p.grad is total for total in sums) for p in model.parameters())
        step.release()
        assert all(p.grad is None for p in model.parameters())
        assert step._combined._sums == []
        got = _replay(step, model, batch)
        assert not any(
            np.shares_memory(p.grad, total) for p in model.parameters() for total in sums
        )
        fresh_model, fresh = _small_vae_step(shards=2)
        _assert_bitwise(got, _replay(fresh, fresh_model, batch))

    def test_profile_seconds_cover_the_live_programs(self, monkeypatch):
        """Kernel seconds are the live programs' and go with them."""
        monkeypatch.setenv("REPRO_PROFILE", "1")
        model, step = _small_vae_step()
        batch = _vae_batch(model, 1)
        step(*batch)
        first = step.kernel_seconds()
        assert first and all(seconds > 0 for seconds in first.values())
        step.release()
        assert step.kernel_seconds() == {}
        step(*batch)
        assert set(step.kernel_seconds()) == set(first)
