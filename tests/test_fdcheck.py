"""Complex-step oracle: losses, derivatives, kink flags, comparisons."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatgrad import (
    Graph,
    GradientSet,
    LayerParams,
    backward_chain,
    compare_gradients,
    fd_gradient,
    forward_with_trace,
    generate_instance,
)
from gatgrad import layer
from gatgrad.fdcheck import COMPLEX_STEP, FdGradient
from gatgrad.layer import _propagate


def exact(grads):
    """A gradient set as an oracle result with no kink flags and no resolution."""
    flags = {key: np.zeros(block.shape, dtype=bool) for key, block in grads.as_dict().items()}
    return FdGradient(grads, flags, 0.0)


def passed(checks):
    """The verdict over every compared block."""
    return all(check["pass"] for check in checks.values())


def per_entry_oracle(params, graph, features, node, upstream):
    """Reference: the complex step one entry at a time, one unbatched core call each."""
    trace = forward_with_trace(params, graph, features, node)
    blocks = [params.theta_r, params.theta_l, params.att, params.bias]
    grads = []
    for pos, block in enumerate(blocks):
        grad = np.empty(block.size)
        for idx in range(block.size):
            work = block.astype(complex)
            work.reshape(-1)[idx] += 1j * COMPLEX_STEP
            h_out = _propagate(
                *blocks[:pos], work, *blocks[pos + 1 :], params.negative_slope,
                trace.h_aug_target[None], trace.h_aug_sources[None],
            ).h_out[0]
            grad[idx] = (upstream @ h_out).imag / COMPLEX_STEP
        grads.append(grad.reshape(block.shape))
    return GradientSet(*grads)


def crossing_core(flat, slope):
    """The layer core, but in a stack of theta_L copies the copy that perturbs
    flat entry `flat` has its first pre-activation negated, across the kink,
    and that entry's slope taken by LeakyReLU's rule at `slope`."""

    def core(*args):
        block = _propagate(*args)
        theta_l = args[1]
        if theta_l.ndim == 3:  # a stack of theta_L copies
            copy = np.flatnonzero(theta_l.reshape(len(theta_l), -1)[:, flat].imag)
            pre_act = block.pre_act.copy()  # the record's arrays are read-only
            pre_act[copy, 0, 0] *= -1.0
            slopes = block.slopes.copy()
            slopes[copy, 0, 0] = np.where(pre_act[copy, 0, 0].real > 0.0, 1.0, slope)
            block = dataclasses.replace(block, pre_act=pre_act, slopes=slopes)
        return block

    return core


@st.composite
def oracle_cases(draw):
    """(graph, features, params, node, upstream): the node is isolated, has a
    single neighbor (possibly itself), a random neighbor set with or without
    a self-loop, or every node as a neighbor. At H = D = 16 a theta block of
    272 entries spans three or more chunks at the default budget."""
    n = draw(st.integers(1, 24))
    h, d = draw(st.sampled_from([(1, 1), (2, 3), (3, 2), (16, 16)]))
    node = draw(st.integers(0, n - 1))
    shape = draw(st.sampled_from(["isolated", "single", "random", "self_loop", "every"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    others = [j for j in rng.permutation(n).tolist() if j != node]
    nbrs = {
        "isolated": [],
        "single": [int(rng.integers(n))],
        "random": others[: int(rng.integers(len(others) + 1))],
        "self_loop": [node, *others[: int(rng.integers(len(others) + 1))]],
        "every": rng.permutation(n).tolist(),
    }[shape]
    graph = Graph(n, tuple((node, j) for j in nbrs))
    params = LayerParams(
        rng.standard_normal((d, h + 1)), rng.standard_normal((d, h + 1)),
        rng.standard_normal(d), rng.standard_normal(d),
    )
    upstream = np.ones(d) if draw(st.booleans()) else rng.standard_normal(d)
    return graph, rng.standard_normal((n, h)), params, node, upstream


@st.composite
def near_kink_cases(draw):
    """(graph, features, params, node, (k, t), value, rng): pre-activation t
    of the node's edge k is set to value, exactly 0 or +-2**-p for p =
    20..50, through theta_L[t, 0]. Features are multiples of 1/4 in [-1, 1]
    and theta entries multiples of 1/8 in [-1/2, 1/2], at H <= 3: every
    partial sum of a projection is a multiple of 2**-50 below 8 in
    magnitude, so no sum rounds and the value is met exactly."""
    n = draw(st.integers(1, 8))
    h, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    node = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nbrs = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
    graph = Graph(n, tuple((node, j) for j in nbrs))
    feats = rng.integers(-4, 5, (n, h)) / 4
    theta_r, theta_l = rng.integers(-4, 5, (2, d, h + 1)) / 8
    k, t = int(rng.integers(len(nbrs))), int(rng.integers(d))
    sign, power = draw(st.sampled_from([0.0, 1.0, -1.0])), draw(st.integers(20, 50))
    value = sign * 2.0**-power
    att, bias = rng.standard_normal(d), rng.standard_normal(d)
    base = forward_with_trace(LayerParams(theta_r, theta_l, att, bias), graph, feats, node)
    theta_l[t, 0] += value - base.pre_act[k, t]
    return graph, feats, LayerParams(theta_r, theta_l, att, bias), node, (k, t), value, rng


class TestBatchedOracle:
    """The batched oracle against the one-entry-per-call evaluation."""

    @settings(deadline=None, max_examples=60)
    @given(oracle_cases())
    def test_matches_per_entry_evaluation(self, case):
        """Every entry within 0.05 resolution and every verdict the same, at
        an edge budget of 1 (one copy per call), 7 and the default."""
        graph, feats, params, node, upstream = case
        want = per_entry_oracle(params, graph, feats, node, upstream)
        trace = forward_with_trace(params, graph, feats, node)
        chain = backward_chain(trace, params, upstream)
        for budget in (1, 7, layer.EDGE_BUDGET):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(layer, "EDGE_BUDGET", budget)
                got = fd_gradient(trace, params, upstream)
            for key, block in got.grads.as_dict().items():
                err = np.abs(block - want.as_dict()[key]).max(initial=0.0)
                assert err <= 0.05 * got.resolution, (budget, key, err / got.resolution)
            reference = dataclasses.replace(got, grads=want)
            for tol in (1e-6, 1e-12):
                verdicts = [compare_gradients(chain, num, tol) for num in (got, reference)]
                assert passed(verdicts[0]) == passed(verdicts[1])
                for key, check in verdicts[0].items():
                    assert check["pass"] == verdicts[1][key]["pass"], (budget, key)

    @pytest.mark.parametrize("budget", [None, 1000, 7])
    def test_theta_blocks_split_over_chunks(self, monkeypatch, budget):
        """A hub of 24 neighbors at H = D = 16 takes EDGE_BUDGET // (2 * 24)
        copies a call, the budget read when the oracle runs: 85 at the default,
        so each 272-entry theta block spans four chunks; one copy a call at 7.
        Each copy's loss is its own dot product with the upstream, so every
        entry equals the one-entry-per-call reference bit for bit at any
        budget; one matrix-vector product over a chunk's copies rounded a
        copy's loss differently, by a few ulps of the loss."""
        if budget is not None:
            monkeypatch.setattr(layer, "EDGE_BUDGET", budget)
        rng = np.random.default_rng(5)
        graph = Graph(24, tuple((0, j) for j in range(24)))
        params = LayerParams(
            rng.standard_normal((16, 17)), rng.standard_normal((16, 17)),
            rng.standard_normal(16), rng.standard_normal(16),
        )
        feats, upstream = rng.standard_normal((24, 16)), rng.standard_normal(16)
        calls = []
        monkeypatch.setattr(
            "gatgrad.fdcheck._propagate", lambda *args: calls.append(args[0]) or _propagate(*args)
        )
        got = fd_gradient(forward_with_trace(params, graph, feats, 0), params, upstream)
        chunk = max(1, layer.EDGE_BUDGET // 48)
        sizes = [min(chunk, 272 - lo) for lo in range(0, 272, chunk)]
        assert [len(theta) for theta in calls[: len(sizes)]] == sizes
        assert budget is not None or sizes == [85, 85, 85, 17]
        want = per_entry_oracle(params, graph, feats, 0, upstream).as_dict()
        for key, block in got.grads.as_dict().items():
            assert np.array_equal(block, want[key]), key
            assert np.array_equal(np.signbit(block), np.signbit(want[key])), key

    @pytest.mark.parametrize("budget", [None, 1000, 7])
    def test_window_equals_lone_calls(self, monkeypatch, budget):
        """A window of an isolated node, a single neighbor, a lone self-loop,
        a self-loop among others, degrees up to H + 1 = 5 and a hub of 12
        (two chunk sizes but at a budget of 7) gives each node the entries,
        signs of zero, kink masks and resolution of its lone trace's call,
        bit for bit, under random upstream rows."""
        if budget is not None:
            monkeypatch.setattr(layer, "EDGE_BUDGET", budget)
        rng = np.random.default_rng(11)
        nbrs = [[], [5], [2], [3, 0, 7], [1, 2, 3, 4, 6], list(range(1, 13)), [0, 9, 12]]
        graph = Graph(13, tuple((i, j) for i, row in enumerate(nbrs) for j in row))
        params = LayerParams(
            rng.standard_normal((4, 5)), rng.standard_normal((4, 5)),
            rng.standard_normal(4), rng.standard_normal(4),
        )
        feats, upstreams = rng.standard_normal((13, 4)), rng.standard_normal((len(nbrs), 4))
        traces = [forward_with_trace(params, graph, feats, node) for node in range(len(nbrs))]
        window = fd_gradient(traces, params, upstreams)
        assert window.resolution.shape == (len(nbrs),)
        for i, (trace, upstream) in enumerate(zip(traces, upstreams)):
            lone, got = fd_gradient(trace, params, upstream), window.node(i)
            for key, block in lone.grads.as_dict().items():
                assert window.grads.as_dict()[key].shape == (len(nbrs), *block.shape)
                assert np.array_equal(got.grads.as_dict()[key], block), (i, key)
                assert np.array_equal(np.signbit(got.grads.as_dict()[key]), np.signbit(block))
                assert np.array_equal(got.kink_flags[key], lone.kink_flags[key]), (i, key)
            assert got.resolution == lone.resolution and isinstance(lone.resolution, float)

    @pytest.mark.parametrize("n_nbrs, h, d", [(1, 32, 32), (0, 16, 16), (40, 2, 3)])
    def test_chunk_arrays_within_whole_graph_bytes(self, monkeypatch, n_nbrs, h, d):
        """Each core call's complex stack and edge arrays fit in the bytes of one
        (EDGE_BUDGET, D) float64 array, also where H + 1 exceeds the degree,
        in a window of node 0 (n_nbrs neighbors), node 1 (one) and node 2 (none)."""
        rng = np.random.default_rng(3)
        graph = Graph(41, tuple((0, j) for j in range(1, n_nbrs + 1)) + ((1, 0),))
        params = LayerParams(
            rng.standard_normal((d, h + 1)), rng.standard_normal((d, h + 1)),
            rng.standard_normal(d), rng.standard_normal(d),
        )
        calls = []
        monkeypatch.setattr(
            "gatgrad.fdcheck._propagate", lambda *args: calls.append(args) or _propagate(*args)
        )
        feats = rng.standard_normal((41, h))
        traces = [forward_with_trace(params, graph, feats, node) for node in range(3)]
        fd_gradient(traces, params, np.ones((3, d)))
        assert {len(args[-1]) for args in calls} == {n_nbrs, 1, 0}
        limit = layer.EDGE_BUDGET * d * 8
        for args in calls:
            copies = max(len(block) for block in args[:4] if block.dtype == complex)
            assert max(block.nbytes for block in args[:4]) <= limit
            assert copies * len(args[-1]) * d * 16 <= limit


class TestEvaluateLoss:
    """The oracle's loss is upstream . h_out; the upstream vector is validated."""

    def setup_method(self):
        self.g, self.feats, self.params = generate_instance(4, 2, 3, seed=7)
        self.trace = forward_with_trace(self.params, self.g, self.feats, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            fd_gradient(self.trace, self.params, np.zeros(2))

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_gradient(self.trace, self.params, np.array([1.0, np.inf, 1.0]))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_window_takes_one_row_per_trace(self, rows):
        with pytest.raises(ValueError):
            fd_gradient([self.trace, self.trace], self.params, np.ones((rows, 3)))


class TestFdConfig:
    """The tolerance compare_gradients takes."""

    def setup_method(self):
        g, feats, params = generate_instance(4, 2, 3, seed=7)
        self.numeric = fd_gradient(forward_with_trace(params, g, feats, 0), params, np.ones(3))

    def test_defaults(self):
        """The default tolerance is 1e-6: the largest theta_L entry 0.9e-6 off
        passes, 1.1e-6 off fails."""
        grads = self.numeric.grads
        largest = np.unravel_index(np.argmax(np.abs(grads.theta_l)), grads.theta_l.shape)
        for rel, want in ((0.9e-6, True), (1.1e-6, False)):
            theta_l = grads.theta_l.copy()
            theta_l[largest] *= 1.0 + rel
            off = GradientSet(grads.theta_r, theta_l, grads.att, grads.bias)
            assert passed(compare_gradients(off, exact(grads))) is want

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    def test_tolerance_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            compare_gradients(self.numeric.grads, self.numeric, tol)


class TestFdGradient:
    def setup_method(self):
        self.g, self.feats, self.params = generate_instance(4, 2, 3, seed=7)
        self.trace = forward_with_trace(self.params, self.g, self.feats, 0)

    def test_bias_entries_exactly_linear(self):
        """Dot loss is linear in the bias, so the derivative recovers g."""
        upstream = np.array([0.7, -1.1, 0.4])
        out = fd_gradient(self.trace, self.params, upstream)
        np.testing.assert_allclose(out.grads.bias, upstream, atol=1e-9)

    def test_single_neighbor_attention_entries_vanish(self):
        graph = Graph(2, ((0, 1),))
        feats = np.array([[0.5], [2.0]])
        params = LayerParams([[0.3, 1.1]], [[-0.4, 0.9]], [1.7], [0.2])
        out = fd_gradient(forward_with_trace(params, graph, feats, 0), params, np.ones(1))
        assert np.abs(out.grads.theta_r).max() <= 1e-9
        assert np.abs(out.grads.att).max() <= 1e-9

    def test_repeated_runs_bit_identical(self):
        traces = [forward_with_trace(self.params, self.g, self.feats, 1) for _ in "ab"]
        a, b = (fd_gradient(trace, self.params, np.ones(3)) for trace in traces)
        for key in a.grads.as_dict():
            assert np.array_equal(a.grads.as_dict()[key], b.grads.as_dict()[key])
        assert a.resolution == b.resolution

    def test_reads_no_result_but_slopes_alpha_and_source_proj(self):
        """Of the trace's results the oracle reads only slopes, alpha and
        source_proj, so it stays independent of the routes it checks: with
        every other intermediate NaN, pre_act included, its gradients, kink
        flags and resolution are the same, bit for bit."""
        upstream = np.array([0.7, -1.1, 0.4])
        unread = ("target_proj", "pre_act", "post_act", "scores", "messages", "h_out")
        nans = {name: np.full_like(getattr(self.trace, name), np.nan) for name in unread}
        blind = dataclasses.replace(self.trace, **nans)
        want, got = (fd_gradient(trace, self.params, upstream) for trace in (self.trace, blind))
        for key, block in want.grads.as_dict().items():
            assert got.grads.as_dict()[key].tobytes() == block.tobytes(), key
            assert got.kink_flags[key].tobytes() == want.kink_flags[key].tobytes(), key
        assert got.resolution == want.resolution

    def test_kink_flagging(self):
        """A pre-activation exactly at the kink flags nothing: the complex step
        leaves it on the negative branch, where the chain's slopes put it too,
        and the chain passes at 1e-12."""
        graph = Graph(2, ((0, 1),))
        feats = np.array([[1.0], [1.0]])
        # pre-activation = theta_r bias + theta_l bias + weights = exactly 0
        params = LayerParams([[0.5, 0.5]], [[-0.5, -0.5]], [1.0], [0.0])
        trace = forward_with_trace(params, graph, feats, 0)
        assert trace.pre_act[0, 0] == 0.0
        out = fd_gradient(trace, params, np.ones(1))
        assert not any(mask.any() for mask in out.kink_flags.values())
        chain = backward_chain(trace, params, np.ones(1))
        assert passed(compare_gradients(chain, out, 1e-12))

    def test_no_flags_away_from_kinks(self):
        out = fd_gradient(self.trace, self.params, np.ones(3))
        assert not any(mask.any() for mask in out.kink_flags.values())

    @settings(deadline=None, max_examples=60)
    @given(near_kink_cases())
    def test_pre_activation_at_or_near_the_kink_is_judged(self, case):
        """One pre-activation is exactly 0 or +-2**-p, p = 20..50 (9.5e-7 down
        to 8.9e-16). Nothing is flagged, the chain passes at 1e-12 under a
        uniform and a random upstream, and a 1e-9 relative defect in the
        largest theta_L entry fails, named."""
        graph, feats, params, node, (k, t), value, rng = case
        trace = forward_with_trace(params, graph, feats, node)
        assert trace.pre_act[k, t] == value
        for upstream in (np.ones(params.out_dim), rng.standard_normal(params.out_dim)):
            numeric = fd_gradient(trace, params, upstream)
            assert not any(mask.any() for mask in numeric.kink_flags.values())
            chain = backward_chain(trace, params, upstream)
            assert passed(compare_gradients(chain, numeric, 1e-12))
            bad = chain.theta_l.copy()
            worst = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
            bad[worst] *= 1.0 + 1e-9
            corrupted = GradientSet(chain.theta_r, bad, chain.att, chain.bias)
            checks = compare_gradients(corrupted, numeric, 1e-12)
            assert not checks["theta_L"]["pass"]
            assert checks["theta_L"]["worst_entry"] == tuple(int(v) for v in worst)

    def test_branch_change_in_one_copy_flags_that_entry(self, monkeypatch):
        """A core whose stacked pre-activation of theta_L entry (0, 1) lands on
        the other side of the kink than the node's trace, with the slope of
        that side: exactly that entry is flagged, the gradients are unchanged,
        and the entry leaves the verdict, so a gross defect there passes."""
        entry, upstream = (0, 1), np.ones(3)
        flat = np.ravel_multi_index(entry, self.params.theta_l.shape)
        clean = fd_gradient(self.trace, self.params, upstream)
        monkeypatch.setattr("gatgrad.fdcheck._propagate", crossing_core(flat, 0.2))
        numeric = fd_gradient(self.trace, self.params, upstream)
        assert clean.kink_flags["theta_L"].sum() == 0
        for key, mask in numeric.kink_flags.items():
            assert np.array_equal(numeric.grads.as_dict()[key], clean.grads.as_dict()[key])
            assert np.flatnonzero(mask).tolist() == ([flat] if key == "theta_L" else [])
        chain = backward_chain(self.trace, self.params, upstream)
        bad = chain.theta_l.copy()
        bad[entry] += 1.0
        corrupted = GradientSet(chain.theta_r, bad, chain.att, chain.bias)
        checks = compare_gradients(corrupted, numeric, 1e-12)
        assert passed(checks) and checks["theta_L"]["kink_flagged"] == (entry,)
        assert not passed(compare_gradients(corrupted, clean, 1e-12))

    def test_crossing_at_slope_one_flags_nothing(self, monkeypatch):
        """At negative_slope 1 both sides of the kink have slope 1: a copy
        whose pre-activation crosses it keeps the trace's slopes, so no entry
        is flagged and the gradients are unchanged."""
        params = dataclasses.replace(self.params, negative_slope=1.0)
        trace = forward_with_trace(params, self.g, self.feats, 0)
        upstream = np.ones(3)
        clean = fd_gradient(trace, params, upstream)
        flat = np.ravel_multi_index((0, 1), params.theta_l.shape)
        monkeypatch.setattr("gatgrad.fdcheck._propagate", crossing_core(flat, 1.0))
        numeric = fd_gradient(trace, params, upstream)
        for key, mask in numeric.kink_flags.items():
            assert not mask.any(), key
            assert np.array_equal(numeric.grads.as_dict()[key], clean.grads.as_dict()[key])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_rejected(self):
        # h_out is finite but the dot with a huge loss vector overflows.
        params = LayerParams([[0.1, 0.1]], [[0.1, 0.1]], [1.0], [1e200])
        graph = Graph(1, ())
        feats = np.array([[0.0]])
        trace = forward_with_trace(params, graph, feats, 0)
        with pytest.raises(ValueError, match="non-finite loss at a perturbed point"):
            fd_gradient(trace, params, np.array([1e200]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_mid_chunk_rejected(self):
        """One copy in the middle of a chunk overflows and the rest do not.

        theta_L[0, 2] multiplies a source feature of 1e300 but is 0, so every
        real value stays finite; its imaginary step lifts h_out's imaginary
        part to 1e270, which the upstream 1e100 carries past the float range.
        All four theta_L copies share one chunk, and entry 2 is neither first
        nor last in it."""
        graph = Graph(2, ((0, 1),))
        feats = np.array([[0.0, 0.0, 0.0], [0.5, 1e300, 0.5]])
        params = LayerParams(
            [[0.1, 0.2, 0.3, 0.4]], [[0.1, 0.2, 0.0, 0.3]], [1.0], [0.0]
        )
        trace = forward_with_trace(params, graph, feats, 0)
        with pytest.raises(ValueError, match="non-finite loss at a perturbed point"):
            fd_gradient(trace, params, np.array([1e100]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_loss_scale_rejected(self):
        """Bias terms that cancel in the loss but overflow by magnitude."""
        theta = [[0.1, 0.1], [0.1, 0.1]]
        params = LayerParams(theta, theta, [1.0, 1.0], [1e308, -1e308])
        graph = Graph(1, ())
        feats = np.array([[0.0]])
        trace = forward_with_trace(params, graph, feats, 0)
        with pytest.raises(ValueError, match="non-finite loss scale"):
            fd_gradient(trace, params, np.ones(2))


class TestCompareGradients:
    def setup_method(self):
        self.g, self.feats, self.params = generate_instance(4, 2, 3, seed=7)
        self.trace = forward_with_trace(self.params, self.g, self.feats, 0)
        self.chain = backward_chain(self.trace, self.params, np.ones(3))

    def test_identical_inputs_pass_with_zero_error(self):
        checks = compare_gradients(self.chain, exact(self.chain))
        assert passed(checks)
        assert all(c["max_rel_err"] == 0.0 for c in checks.values())

    def test_single_corrupted_entry_fails_and_is_named(self):
        bad = self.chain.theta_l.copy()
        bad[1, 2] += 1e-3
        corrupted = GradientSet(self.chain.theta_r, bad, self.chain.att, self.chain.bias)
        checks = compare_gradients(self.chain, exact(corrupted))
        assert not passed(checks)
        assert not checks["theta_L"]["pass"]
        assert checks["theta_L"]["worst_entry"] == (1, 2)
        assert checks["theta_R"]["pass"]

    def test_kink_flagged_entries_excluded_from_verdict(self):
        numeric = fd_gradient(self.trace, self.params, np.ones(3))
        bad_theta_r = self.chain.theta_r.copy()
        bad_theta_r[0, 0] += 1.0
        corrupted = GradientSet(
            bad_theta_r, self.chain.theta_l, self.chain.att, self.chain.bias
        )
        flags = {k: v.copy() for k, v in numeric.kink_flags.items()}
        flags["theta_R"][0, 0] = True
        flagged = dataclasses.replace(numeric, kink_flags=flags)
        assert passed(compare_gradients(corrupted, flagged))
        assert not passed(compare_gradients(corrupted, numeric))
        assert (0, 0) in compare_gradients(corrupted, flagged)["theta_R"]["kink_flagged"]

    def test_kink_flagged_lists_entries_in_row_major_order(self, monkeypatch):
        """Flagged entries as Python ints, in row-major order; a block with no
        flag lists none without searching its mask."""
        numeric = fd_gradient(self.trace, self.params, np.ones(3))
        flags = {key: np.zeros_like(mask) for key, mask in numeric.kink_flags.items()}
        flags["theta_R"][[0, 2, 2], [2, 0, 1]] = True
        flags["a"][[0, 2]] = True
        checks = compare_gradients(self.chain, dataclasses.replace(numeric, kink_flags=flags))
        assert checks["theta_R"]["kink_flagged"] == ((0, 2), (2, 0), (2, 1))
        assert checks["a"]["kink_flagged"] == (0, 2)
        entries = checks["a"]["kink_flagged"] + sum(checks["theta_R"]["kink_flagged"], ())
        assert {type(i) for i in entries} == {int}

        def no_search(mask):
            raise AssertionError("searched a mask with no flag")

        monkeypatch.setattr(np, "argwhere", no_search)
        checks = compare_gradients(self.chain, numeric)
        assert [check["kink_flagged"] for check in checks.values()] == [()] * 4

    def test_below_resolution_zeros_are_confirmed_not_judged(self):
        """A zero analytic entry may differ from the oracle by pure rounding."""
        numeric = fd_gradient(self.trace, self.params, np.ones(3))
        noisy = numeric.grads.theta_r.copy()
        zero_rows = np.all(self.chain.theta_r == 0.0, axis=1)
        if zero_rows.any():
            noisy[np.argmax(zero_rows), 0] = numeric.resolution * 0.5
        perturbed = dataclasses.replace(
            numeric,
            grads=GradientSet(
                noisy, numeric.grads.theta_l, numeric.grads.att, numeric.grads.bias
            ),
        )
        assert passed(compare_gradients(self.chain, perturbed))

    def test_unattainable_tolerance_fails(self):
        """1e-9 relative on the largest theta_L entry passes at the default
        tolerance and fails at 1e-10, named; the clean chain passes at 1e-12."""
        numeric = fd_gradient(self.trace, self.params, np.ones(3))
        assert passed(compare_gradients(self.chain, numeric, 1e-12))
        bad = self.chain.theta_l.copy()
        worst = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
        bad[worst] *= 1.0 + 1e-9
        corrupted = GradientSet(self.chain.theta_r, bad, self.chain.att, self.chain.bias)
        assert passed(compare_gradients(corrupted, numeric))
        checks = compare_gradients(corrupted, numeric, 1e-10)
        assert not passed(checks)
        failing = [k for k, c in checks.items() if not c["pass"]]
        assert failing == ["theta_L"]
        assert checks["theta_L"]["worst_entry"] == tuple(int(v) for v in worst)

    def test_shape_mismatch_rejected(self):
        other = GradientSet(
            np.zeros((2, 3)), self.chain.theta_l, self.chain.att, self.chain.bias
        )
        with pytest.raises(ValueError):
            compare_gradients(self.chain, exact(other))

    def test_report_json_layout(self):
        """Each block's verdict in the report's key order; the run keys around
        them (step, tolerance, resolution, seed) are laid out by the CLI, and
        tests/test_cli.py checks them."""
        numeric = fd_gradient(self.trace, self.params, np.ones(3))
        checks = compare_gradients(self.chain, numeric)
        assert list(checks) == ["theta_R", "theta_L", "a", "b"]
        for key in ("theta_R", "theta_L", "a", "b"):
            assert list(checks[key]) == ["max_rel_err", "pass", "kink_flagged", "worst_entry"]
        assert list(compare_gradients(self.chain, numeric, keys=("b", "a"))) == ["b", "a"]


def test_array_records_compare_by_identity():
    """LayerParams, GradientSet and FdGradient hold read-only arrays, so they
    compare and hash by identity, as ForwardTrace does: == and hash return,
    an instance equals itself and not a separately built twin."""
    graph, features, params = generate_instance(4, 2, 3, seed=1)
    upstream = np.ones(3)
    trace = forward_with_trace(params, graph, features, 0)
    twins = [
        [LayerParams(params.theta_r, params.theta_l, params.att, params.bias) for _ in "ab"],
        [backward_chain(trace, params, upstream) for _ in "ab"],
        [fd_gradient(trace, params, upstream) for _ in "ab"],
    ]
    for record, twin in twins:
        assert isinstance(hash(record), int) and isinstance(hash(twin), int)
        assert record == record and not record == twin and record != twin
