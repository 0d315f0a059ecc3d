import base64
import json
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabcl import contrastive
from tabcl.contrastive import (
    LEAKY_SLOPE,
    LN_EPS,
    PARAM_KEYS,
    STABLE_WINDOW,
    TclConfig,
    augment,
    embed,
    encode,
    grad_on_views,
    init_model,
    load_model,
    loss_on_views,
    save_model,
    train_tcl,
)
from tabcl.exceptions import FormatError, NumericError, TrainingError
from tabcl.numerics import RngStream, gaussian_noise

from conftest import params_block, two_cluster_matrix
from oracles import (
    finite_diff_grad,
    loss_contrastive,
    loss_distance,
    loss_reconstruction,
    oracle_loss,
    oracle_terms,
    ref_decode,
    ref_encode,
    ref_leaky,
    ref_row_mean,
    replace_params,
)


def small_model(d=4, seed=0, **kw):
    """A model of width d: 4 inputs give 16 hidden and 8 latent units."""
    return init_model(TclConfig(input_dim=d, seed=seed, **kw))


def as_float64(model):
    """A float64 copy of a model, holding exactly its parameter values."""
    return replace_params(model, model.vector.astype(np.float64))


# Each identity below holds in both dtypes the models compute in.
DTYPES = [np.float64, np.float32]


def in_dtype(model, dtype):
    return model if dtype == np.float32 else as_float64(model)


def flat_grads(grads):
    return np.concatenate([grads[k].ravel() for k in PARAM_KEYS])


def assert_views_of(model):
    """Every per-key parameter of ``model`` is a view of its vector."""
    for key in PARAM_KEYS:
        assert model.params[key].base is model.vector, key


def perturbed(model, seed, scale=0.3):
    """A float64 copy of the model with every parameter moved by scale * N(0, 1):
    gamma leaves 1, and beta and the biases leave 0."""
    vector = model.vector.astype(np.float64)
    return replace_params(model, vector + scale * RngStream(seed, 7).normal(1, vector.size)[0])


class TestConfig:
    def test_defaults_derive_from_input_dim(self):
        cfg = TclConfig(input_dim=4)
        assert cfg.hidden_dim == 16  # clamp(2*4, 16, 256)
        assert cfg.latent_dim == 8  # clamp(4, 8, 128)
        assert cfg.batch_size == 256

    def test_wide_input_clamps(self):
        cfg = TclConfig(input_dim=400)
        assert cfg.hidden_dim == 256
        assert cfg.latent_dim == 128

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown noise mode"):
            TclConfig(input_dim=3, noise="salt")
        with pytest.raises(ValueError, match="max_epochs must be an integer >= 1, got 0"):
            TclConfig(input_dim=3, max_epochs=0)
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0, got -1.0"):
            TclConfig(input_dim=3, tolerance=-1.0)
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            TclConfig(input_dim=3, seed=-1)

    def test_constants(self):
        assert (contrastive.SIGMA, contrastive.MASK_PROB, contrastive.BATCH_SIZE,
                contrastive.LEARNING_RATE) == (0.1, 0.1, 256, 1e-3)

    def test_round_trip(self):
        cfg = TclConfig(input_dim=5, noise="mask", tolerance=0.5)
        assert TclConfig.from_dict(cfg.to_dict()) == cfg
        assert list(cfg.to_dict()) == [  # the key order of model.json
            "input_dim", "noise", "max_epochs", "tolerance", "seed",
        ]


class TestAugment:
    # the views read SIGMA and MASK_PROB when they are drawn, so a test can
    # set the levels at their edges
    def test_zero_sigma_returns_originals(self, monkeypatch):
        monkeypatch.setattr(contrastive, "SIGMA", 0.0)
        x = RngStream(70, 0).normal(5, 4)
        x1, x2 = augment(x, TclConfig(input_dim=4), RngStream(1, 0))
        np.testing.assert_array_equal(x1, x)
        np.testing.assert_array_equal(x2, x)

    def test_full_mask_zeroes_everything(self, monkeypatch):
        monkeypatch.setattr(contrastive, "MASK_PROB", 1.0)
        x = RngStream(73, 0).normal(5, 4) + 10
        x1, x2 = augment(x, TclConfig(input_dim=4, noise="mask"), RngStream(4, 0))
        assert np.all(x1 == 0.0) and np.all(x2 == 0.0)

    def test_zero_mask_prob_keeps_everything(self, monkeypatch):
        monkeypatch.setattr(contrastive, "MASK_PROB", 0.0)
        x = RngStream(74, 0).normal(5, 4)
        x1, x2 = augment(x, TclConfig(input_dim=4, noise="mask"), RngStream(5, 0))
        np.testing.assert_array_equal(x1, x)
        np.testing.assert_array_equal(x2, x)

    def test_same_stream_reproduces_pair(self):
        x = RngStream(71, 0).normal(5, 4)
        cfg = TclConfig(input_dim=4)
        a = augment(x, cfg, RngStream(2, 0))
        b = augment(x, cfg, RngStream(2, 0))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_views_differ_under_noise(self):
        x = RngStream(72, 0).normal(5, 4)
        x1, x2 = augment(x, TclConfig(input_dim=4), RngStream(3, 0))
        assert not np.array_equal(x1, x2)
        assert not np.array_equal(x1, x)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=12),
        noise=st.sampled_from(["gaussian", "mask"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dtype=st.sampled_from(DTYPES),
    )
    def test_matches_two_per_view_draws(self, n, d, noise, seed, dtype):
        # one stacked draw must give each view the bits of a draw of its
        # own, in the batch's dtype, over successive steps of one stream,
        # signed zeros included
        x = RngStream(seed, 4).normal(n, d).astype(dtype)
        x[:, 0] = -0.0
        cfg = TclConfig(input_dim=d, noise=noise)
        sigma, mask_prob = contrastive.SIGMA, contrastive.MASK_PROB
        rng, ref = RngStream(seed, 1), RngStream(seed, 1)
        for _ in range(3):
            x1, x2 = augment(x, cfg, rng)
            if noise == "gaussian":
                r1 = x + gaussian_noise(n, d, sigma, ref, dtype)
                r2 = x + gaussian_noise(n, d, sigma, ref, dtype)
            else:
                r1 = x * (ref.uniform(n, d, dtype) >= mask_prob)
                r2 = x * (ref.uniform(n, d, dtype) >= mask_prob)
            assert same_bits(x1, r1) and same_bits(x2, r2)
        assert same_bits(rng.uniform(1, 3), ref.uniform(1, 3))


class TestEncodeDecode:
    def test_zero_parameters_give_zero_outputs(self):
        model = small_model()
        zeros = replace_params(model, np.zeros(model.vector.size))
        x = RngStream(75, 0).normal(3, 4)
        assert np.all(encode(zeros, x) == 0.0)
        # the training step decodes zeros, so each view's residual is -x
        _, comps = loss_on_views(zeros, x, x, x)
        assert comps.reconstruction == float(np.mean(x * x))
        assert comps.contrastive == comps.distance == 0.0

    def test_shapes(self):
        model = small_model()
        assert encode(model, np.zeros((1, 4))).shape == (1, 8)

    def test_equal_rows_encode_equally(self):
        model = small_model()
        x = np.tile(RngStream(76, 0).normal(1, 4), (2, 1))
        e = encode(model, x)
        np.testing.assert_array_equal(e[0], e[1])

    def test_dimension_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            encode(model, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            loss_on_views(model, np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((2, 4)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_params_are_views_of_the_vector(self, dtype):
        model = in_dtype(small_model(), dtype)
        assert model.dtype == dtype and model.vector.shape == (460,)
        assert_views_of(model)
        assert same_bits(flat_grads(model.params), model.vector)

    @pytest.mark.parametrize("vector, message", [
        (np.zeros((1, 460)), "shape (1, 460)"),
        (np.zeros(460, np.int64), "of int64"),
        (np.zeros(460, np.float16), "of float16"),
        (list(np.zeros(460)), "float32 or float64 vector"),
        (np.zeros(459), "459 entries, expected 460"),
        (np.zeros(461), "461 entries, expected 460"),
    ], ids=["2-d", "integer", "float16", "list", "one-short", "one-long"])
    def test_bad_vector_rejected(self, vector, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            contrastive.TclModel(small_model().config, vector)

    def test_embed_is_encode(self):
        assert embed is encode
        model = small_model()
        x = RngStream(77, 0).normal(6, 4)
        np.testing.assert_array_equal(embed(model, x), encode(model, x))


class TestLosses:
    def test_reconstruction_trivials(self):
        x = RngStream(78, 0).normal(3, 4)
        assert loss_reconstruction(x, x, x) == 0.0
        assert loss_reconstruction(x + 1.0, x, x) == pytest.approx(0.5)

    def test_reconstruction_matches_loop_oracle(self):
        rng = RngStream(79, 0)
        a, b, x = rng.normal(3, 4), rng.normal(3, 4), rng.normal(3, 4)
        acc = 0.0
        for view in (a, b):
            for i in range(3):
                for j in range(4):
                    acc += (view[i, j] - x[i, j]) ** 2
        assert abs(loss_reconstruction(a, b, x) - acc / (2 * 12)) < 1e-12

    def test_distance_trivials(self):
        e = RngStream(80, 0).normal(4, 3)
        assert loss_distance(e, e) == 0.0
        assert loss_distance(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == 1.0

    def test_distance_matches_loop_oracle(self):
        rng = RngStream(81, 0)
        a, b = rng.normal(4, 3), rng.normal(4, 3)
        acc = sum((a[i, j] - b[i, j]) ** 2 for i in range(4) for j in range(3))
        assert abs(loss_distance(a, b) - acc / 12) < 1e-12

    def test_contrastive_trivials(self):
        e1 = np.array([[1.0, 0.0]])
        e2 = np.array([[0.0, 1.0]])
        assert loss_contrastive(e1, e2) == 0.0  # orthogonal rows
        both = np.array([[1.0, 1.0]])
        assert loss_contrastive(both, both) == 4.0  # dot = 2, squared = 4

    def test_contrastive_matches_loop_oracle(self):
        rng = RngStream(82, 0)
        a, b = rng.normal(5, 3), rng.normal(5, 3)
        acc = 0.0
        for i in range(5):
            dot = sum(a[i, j] * b[i, j] for j in range(3))
            acc += dot * dot
        assert abs(loss_contrastive(a, b) - acc / 5) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_components_are_non_negative(self, n, k, seed):
        rng = RngStream(seed, 0)
        a, b, x = rng.normal(n, k), rng.normal(n, k), rng.normal(n, k)
        assert loss_reconstruction(a, b, x) >= 0.0
        assert loss_distance(a, b) >= 0.0
        assert loss_contrastive(a, b) >= 0.0

    def test_float32_inputs_compute_in_float32(self):
        # no float64 copy: each term equals its formula evaluated in float32
        rng = RngStream(89, 0)
        a, b, x = (rng.normal(6, 3).astype(np.float32) for _ in range(3))
        assert loss_distance(a, b) == float(np.mean((a - b) ** 2))
        assert loss_reconstruction(a, b, x) == 0.5 * (
            float(np.mean((a - x) ** 2)) + float(np.mean((b - x) ** 2)))
        dots = (a * b).sum(axis=1)
        assert dots.dtype == np.float32
        assert loss_contrastive(a, b) == float(np.mean(dots * dots))


# A float32 loss may move under a row permutation by the reordering of its
# sums.  Each term is a mean over at most 7 * 9 = 63 non-negative float32
# numbers here (rows times the wider of d and k), and summing m non-negative
# numbers in another order moves the sum by at most (m - 1) * eps of it;
# 64 eps covers that.
F32_PERMUTATION_BOUND = 64 * np.finfo(np.float32).eps
PERMUTATION_BOUND = {np.float64: 1e-12, np.float32: F32_PERMUTATION_BOUND}


class TestTotalLoss:
    def test_decomposition_is_bit_exact(self):
        # the training step's terms hold the bits of the loss_* oracles,
        # each term and not just their sum
        for dtype in DTYPES:
            model = in_dtype(small_model(), dtype)
            rng = RngStream(84, 0)
            x = rng.normal(6, 4).astype(dtype)
            x1, x2 = augment(x, model.config, rng)
            total, comps = loss_on_views(model, x1, x2, x)
            assert encode(model, x1).dtype == dtype
            r, c, d = oracle_terms(model, x1, x2, x)
            assert total == r + c + d, dtype
            assert (comps.reconstruction, comps.contrastive, comps.distance) == (r, c, d), dtype

    def test_decomposition_is_bit_exact_on_a_stack_of_two_blocks(self):
        # a float64 model at d = 64 has 256 rows per inference block, so the
        # 400 stacked rows span two; the oracle encodes the whole stack, as
        # the training step does, and still holds each term's bits
        model = as_float64(small_model(d=64, seed=5))
        rng = RngStream(88, 0)
        x = rng.normal(200, 64)
        assert block_rows(model) == 256 < 2 * len(x)
        x1, x2 = augment(x, model.config, rng)
        total, comps = loss_on_views(model, x1, x2, x)
        r, c, d = oracle_terms(model, x1, x2, x)
        assert total == r + c + d
        assert (comps.reconstruction, comps.contrastive, comps.distance) == (r, c, d)

    def test_row_permutation_invariance(self):
        for dtype in DTYPES:
            model = in_dtype(small_model(), dtype)
            rng = RngStream(85, 0)
            x = rng.normal(7, 4).astype(dtype)
            x1, x2 = augment(x, model.config, rng)
            total, _ = loss_on_views(model, x1, x2, x)
            perm = RngStream(86, 0).permutation(7)
            total_p, _ = loss_on_views(model, x1[perm], x2[perm], x[perm])
            assert abs(total - total_p) <= PERMUTATION_BOUND[dtype] * max(1.0, abs(total))

    def test_float32_identities_over_random_models(self):
        # criterion 03's identities (decomposition, non-negativity,
        # row-permutation invariance) on float32 models
        rng = np.random.default_rng(778)
        for case in range(200):
            # widths 2 to 9: hidden 16 or 18, latent 8 or 9
            model = init_model(TclConfig(input_dim=int(rng.integers(2, 10)), seed=4000 + case))
            n = int(rng.integers(2, 8))
            stream = RngStream(case, 6)
            x = stream.normal(n, model.config.input_dim).astype(np.float32)
            x1, x2 = augment(x, model.config, stream)
            total, comps = loss_on_views(model, x1, x2, x)
            r, c, dist = oracle_terms(model, x1, x2, x)
            assert total == r + c + dist
            assert (comps.reconstruction, comps.contrastive, comps.distance) == (r, c, dist)
            assert r >= 0.0 and c >= 0.0 and dist >= 0.0
            perm = stream.permutation(n)
            total_p, _ = loss_on_views(model, x1[perm], x2[perm], x[perm])
            assert abs(total - total_p) <= F32_PERMUTATION_BOUND * max(1.0, abs(total))

    def test_loss_total_draws_from_stream(self):
        model = small_model()
        x = RngStream(87, 0).normal(6, 4)
        t1, c1 = loss_on_views(model, *augment(x, model.config, RngStream(9, 0)), x)
        t2, c2 = loss_on_views(model, *augment(x, model.config, RngStream(9, 0)), x)
        assert t1 == t2 and c1 == c2

    def test_noise_free_fixed_point(self):
        # when the model autoencodes the batch perfectly and noise is off,
        # reconstruction and distance vanish; the contrastive term need not
        cfg = TclConfig(input_dim=2, seed=1)
        model = init_model(cfg)
        x = RngStream(88, 0).normal(5, 2)
        e = encode(model, x)
        # build a fake perfect decoder by evaluating against its own output
        _, comps = loss_on_views(model, x, x, ref_decode(model.params, e)["out"])
        assert comps.distance == 0.0
        # reconstruction compares the decoded e with itself
        assert comps.reconstruction == 0.0


class TestGradients:
    def test_matches_finite_differences(self):
        for noise, seed in (("gaussian", 90), ("mask", 91)):
            cfg = TclConfig(input_dim=5, noise=noise, seed=seed)
            model = as_float64(init_model(cfg))
            rng = RngStream(seed, 5)
            x = rng.normal(6, 5)
            x1, x2 = augment(x, cfg, rng)
            _, _, grads = grad_on_views(model, x1, x2, x)
            assert grads["w1"].dtype == np.float64
            f = lambda t: oracle_loss(replace_params(model, t), x1, x2, x)
            numeric = finite_diff_grad(f, model.vector, eps=1e-5)
            analytic = flat_grads(grads)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-4

    def test_matches_finite_differences_at_random_parameters(self):
        # at init_model gamma is 1 and beta 0, where a term of the affine's
        # gradient can be dropped unseen; here every parameter is moved
        for noise, seed in (("gaussian", 120), ("mask", 121)):
            cfg = TclConfig(input_dim=5, noise=noise, seed=seed)
            model = perturbed(init_model(cfg), seed)
            for key in ("gamma", "beta", "b1", "b2", "b3", "b4"):
                assert np.abs(model.params[key] - init_model(cfg).params[key]).min() > 0.0
            rng = RngStream(seed, 5)
            x = rng.normal(6, 5)
            x1, x2 = augment(x, cfg, rng)
            _, _, grads = grad_on_views(model, x1, x2, x)
            f = lambda t: oracle_loss(replace_params(model, t), x1, x2, x)
            numeric = finite_diff_grad(f, model.vector, eps=1e-5)
            analytic = flat_grads(grads)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-4

    def test_decoder_bias_gradient_hand_derivation(self):
        # zero parameters, noise-free views: out = b4 = 0, so the
        # reconstruction gradient of the final bias is -(2/(n*d)) * column
        # sums of x
        model = small_model(d=3)
        model = replace_params(model, np.zeros(model.vector.size))
        x = RngStream(92, 0).normal(5, 3)
        _, _, grads = grad_on_views(model, x, x, x)
        expected = -(2.0 / (5 * 3)) * x.sum(axis=0)
        np.testing.assert_allclose(grads["b4"], expected, atol=1e-12)
        # all other gradients vanish at the all-zero stationary point
        for key in PARAM_KEYS:
            if key != "b4":
                assert np.allclose(grads[key], 0.0, atol=1e-12)

    def test_float32_step_matches_float64_step(self):
        # the same parameters and views, one step in each dtype: the float32
        # gradients carry the rounding of a float32 pass, measured within
        # 6 eps of the float64 step's over 60 random shapes
        bound = 64 * np.finfo(np.float32).eps
        for noise, seed in (("gaussian", 110), ("mask", 111), ("gaussian", 112)):
            cfg = TclConfig(input_dim=6, noise=noise, seed=seed)
            model = init_model(cfg)
            rng = RngStream(seed, 5)
            x = rng.normal(16, 6).astype(np.float32)
            x1, x2 = augment(x, cfg, rng)
            t32, _, g32 = grad_on_views(model, x1, x2, x)
            t64, _, g64 = grad_on_views(as_float64(model), x1, x2, x)
            assert flat_grads(g32).dtype == np.float32
            g32, g64 = flat_grads(g32), flat_grads(g64)
            assert np.abs(g32 - g64).max() <= bound * np.abs(g64).max()
            assert abs(t32 - t64) <= bound * t64

    def test_contrastive_term_stationary_at_orthogonal_rows(self):
        # per-row dots of zero kill the contrastive gradient: perturbing one
        # embedding changes the loss only at second order
        e1 = np.array([[1.0, 0.0], [0.0, 2.0]])
        e2 = np.array([[0.0, 3.0], [1.0, 0.0]])
        base = loss_contrastive(e1, e2)
        assert base == 0.0
        eps = 1e-6
        bumped = e1.copy()
        bumped[0, 0] += eps
        assert abs(loss_contrastive(bumped, e2) - base) < 1e-10


class TestTraining:
    def test_loss_halves_on_clustered_data(self):
        X = two_cluster_matrix(n=400, d=5)
        cfg = TclConfig(input_dim=5, max_epochs=15, tolerance=0.0, seed=2)
        model, trace = train_tcl(X, cfg)
        assert trace.total[-1] <= 0.5 * trace.total[0]
        assert all(np.isfinite(v) and v >= 0 for v in trace.total)

    def test_bit_exact_determinism(self):
        X = two_cluster_matrix(n=300, d=4)
        cfg = TclConfig(input_dim=4, max_epochs=5, seed=7)
        m1, t1 = train_tcl(X, cfg)
        m2, t2 = train_tcl(X, cfg)
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(m1.params[key], m2.params[key])
        assert t1.total == t2.total

    def test_zero_tolerance_runs_all_epochs(self):
        X = two_cluster_matrix(n=300, d=4)
        cfg = TclConfig(input_dim=4, max_epochs=15, tolerance=0.0, seed=3)
        _, trace = train_tcl(X, cfg)
        assert trace.epochs == 15
        assert trace.stop_reason == "max-epochs"

    def test_stabilization_stops_early(self):
        X = two_cluster_matrix(n=300, d=4)
        cfg = TclConfig(input_dim=4, max_epochs=100, tolerance=0.5, seed=4)
        _, trace = train_tcl(X, cfg)
        assert trace.stop_reason == "stabilized"
        assert trace.epochs < 100

    def test_divergence_raises_training_error(self, monkeypatch):
        monkeypatch.setattr(contrastive, "LEARNING_RATE", 30.0)
        X = two_cluster_matrix(n=300, d=4)
        cfg = TclConfig(input_dim=4, max_epochs=50, seed=5)
        with pytest.raises(TrainingError, match=r"loss diverged at epoch \d+ \(.* vs initial"):
            train_tcl(X, cfg)

    def test_batch_clipped_to_dataset_size(self):
        X = two_cluster_matrix(n=40, d=4)
        cfg = TclConfig(input_dim=4, max_epochs=3, seed=6)
        _, trace = train_tcl(X, cfg)
        assert trace.epochs == 3

    def test_epoch_walks_batches_of_batch_size(self, monkeypatch):
        # training reads BATCH_SIZE when it starts: 100 rows in batches of
        # 32 are three full steps and a short one of 4 rows, every epoch
        rows = []
        grad_into = contrastive._grad_into

        def recording_grad_into(model, x, x_clean, w, grad, grads):
            rows.append((x.shape[0], x_clean.shape[0]))
            return grad_into(model, x, x_clean, w, grad, grads)

        monkeypatch.setattr(contrastive, "BATCH_SIZE", 32)
        monkeypatch.setattr(contrastive, "_grad_into", recording_grad_into)
        X = two_cluster_matrix(n=100, d=4)
        train_tcl(X, TclConfig(input_dim=4, max_epochs=2, tolerance=0.0, seed=14))
        assert rows == 2 * [(64, 32), (64, 32), (64, 32), (8, 4)]

    def test_training_holds_float32_only(self, monkeypatch):
        # an upcast array would pass silently: numpy casts float64 results
        # into float32 out= arrays and in-place operands
        adams, steps = [], []

        class RecordingAdam(contrastive._Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                adams.append(self)

        grad_into = contrastive._grad_into

        def recording_grad_into(model, x, x_clean, w, grad, grads):
            steps.append((grad, grads))
            return grad_into(model, x, x_clean, w, grad, grads)

        monkeypatch.setattr(contrastive, "_Adam", RecordingAdam)
        monkeypatch.setattr(contrastive, "_grad_into", recording_grad_into)
        X = two_cluster_matrix(n=300, d=4)  # a full batch and a short one
        model, _ = train_tcl(X, TclConfig(input_dim=4, max_epochs=2, seed=12))
        assert model.dtype == np.float32
        (adam,) = adams
        grad, grads = steps[0]
        assert all(step[0] is grad for step in steps)
        # the parameters, the gradient and Adam's four sets are flat vectors,
        # and every per-key array is a view of its vector; Adam updates the
        # model's own vector in place
        assert adam.params is model.vector
        assert_views_of(model)
        for flat in (adam.params, grad, adam.m, adam.v, adam._num, adam._den):
            assert flat.dtype == np.float32 and flat.shape == (model.vector.size,)
        for views, flat in ((model.params, adam.params), (grads, grad)):
            for key in PARAM_KEYS:
                assert views[key].dtype == np.float32 and views[key].base is flat, key
        assert same_bits(model.vector, adam.params)
        assert embed(model, X).dtype == np.float32

    def test_non_finite_gradient_names_its_key(self, monkeypatch):
        backward = contrastive._backward

        def poisoned(p, x, w, grads):
            backward(p, x, w, grads)
            grads["w3"][1, 0] = np.nan

        monkeypatch.setattr(contrastive, "_backward", poisoned)
        X = two_cluster_matrix(n=40, d=4)
        with pytest.raises(NumericError, match="gradient of w3"):
            train_tcl(X, TclConfig(input_dim=4, max_epochs=1, seed=13))
        x = X[:6]
        with pytest.raises(NumericError, match="gradient of w3"):
            grad_on_views(small_model(), x, x, x)

    def test_data_beyond_float32_rejected(self):
        # finite in float64, inf after the one cast; pytest turns the cast's
        # overflow warning into an error, so the check warns nothing
        X = two_cluster_matrix(n=20, d=3)
        X[7, 1] = 1e39
        with pytest.raises(ValueError, match="float32 range"):
            train_tcl(X, TclConfig(input_dim=3, max_epochs=1))
        X[7, 1] = np.nan  # not finite to begin with: caught where it appears
        with pytest.raises(NumericError, match="encoder linear 1"):
            train_tcl(X, TclConfig(input_dim=3, max_epochs=1))

    def test_wall_clock_recorded(self):
        X = two_cluster_matrix(n=100, d=4)
        _, trace = train_tcl(X, TclConfig(input_dim=4, max_epochs=2, seed=8))
        assert trace.seconds > 0.0


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        X = two_cluster_matrix(n=100, d=4)
        model, _ = train_tcl(X, TclConfig(input_dim=4, max_epochs=2, seed=9))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert json.loads(path.read_text())["dtype"] == "float32"
        assert_views_of(loaded)
        for key in PARAM_KEYS:
            assert loaded.params[key].dtype == np.float32, key
            assert same_bits(loaded.params[key], model.params[key]), key
        x = RngStream(93, 0).normal(5, 4)
        e = embed(loaded, x)
        assert e.dtype == np.float32
        assert same_bits(e, embed(model, x))

    def test_float64_model_round_trips(self, tmp_path):
        model = as_float64(small_model())
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dtype == np.float64
        assert same_bits(loaded.vector, model.vector)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_save_is_deterministic(self, tmp_path, dtype):
        # the benchmark's digest hashes model.json, so its bytes must repeat
        model = in_dtype(small_model(seed=5), dtype)
        first, second, again = (tmp_path / f"{name}.json" for name in ("a", "b", "c"))
        save_model(model, first)
        save_model(model, second)
        assert first.read_bytes() == second.read_bytes()
        loaded = load_model(first)
        for key in PARAM_KEYS:
            assert same_bits(loaded.params[key], model.params[key]), key
            assert loaded.params[key].flags.c_contiguous and loaded.params[key].flags.writeable
        save_model(loaded, again)
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_block_is_the_little_endian_param_vector(self, tmp_path, dtype):
        model = in_dtype(small_model(), dtype)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 5
        assert payload["dtype"] == np.dtype(dtype).name
        expected = model.vector.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
        assert base64.b64decode(payload["params"], validate=True) == expected

    def test_version_1_file_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["dtype"]
        payload["version"] = 1
        payload["params"] = {k: v.astype(np.float64).tolist() for k, v in model.params.items()}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="version 1, expected 5"):
            load_model(path)

    def test_version_2_file_rejected(self, tmp_path):
        # version 2 held the same fields, with params as nested lists
        model = small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 2
        payload["params"] = {k: v.tolist() for k, v in model.params.items()}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="version 2, expected 5"):
            load_model(path)

    def test_version_3_file_rejected(self, tmp_path):
        # version 3 held the same fields, with a temperature in the config
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 3
        payload["config"]["temperature"] = 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="version 3, expected 5"):
            load_model(path)

    def test_version_4_file_rejected(self, tmp_path):
        # version 4 held the widths, noise levels, batch size and learning
        # rate in the config
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 4
        payload["config"].update(hidden_dim=16, latent_dim=8, sigma=0.1, mask_prob=0.1,
                                 batch_size=256, learning_rate=1e-3)
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="version 4, expected 5"):
            load_model(path)

    @pytest.mark.parametrize("dtype", ["float16", "int32", None, ["float32"]])
    def test_bad_dtype_rejected(self, tmp_path, dtype):
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        payload = json.loads(path.read_text())
        payload["dtype"] = dtype
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="dtype"):
            load_model(path)

    def test_missing_dtype_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        payload = json.loads(path.read_text())
        del payload["dtype"]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="dtype"):
            load_model(path)

    def test_value_beyond_float32_rejected(self, tmp_path):
        # -1e39 is finite as float64 and infinite once cast to float32
        model = as_float64(small_model())
        model.params["w3"][0, 1] = -1e39
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).params["w3"][0, 1] == -1e39
        payload = json.loads(path.read_text())
        payload["dtype"] = "float32"
        payload["params"] = params_block(model.vector, "<f4")
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="'w3' holds a non-finite value"):
            load_model(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{broken")
        with pytest.raises(FormatError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        model = small_model()
        model.params["w2"][1, 2] = value  # written as NaN or inf bytes in the block
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(FormatError, match="'w2' holds a non-finite value"):
            load_model(path)

    # Each case turns a saved float32 model's payload into one whose params
    # block cannot be read; small_model() has 460 parameters.
    BAD_BLOCKS = {
        "a list of numbers": (lambda p, v: v.tolist(), "ASCII string, not 'list'"),
        "the lists of version 2": (lambda p, v: {"w1": v[:24].tolist()}, "not 'dict'"),
        "a number": (lambda p, v: 7, "not 'int'"),
        "a line break inside": (lambda p, v: p[:8] + "\n" + p[8:], "Only base64 data"),
        "a character outside the alphabet": (lambda p, v: p[:8] + "*" + p[8:], "Only base64 data"),
        "a non-ASCII character": (lambda p, v: p[:8] + "\u00e9" + p[8:], "ASCII"),
        "padding missing": (lambda p, v: p.rstrip("="), "Incorrect padding"),
        "data after the padding": (lambda p, v: p + "AAAA", "Excess data after padding"),
        "one value short": (lambda p, v: params_block(v[:-1]), "459 entries, expected 460"),
        "one value long": (lambda p, v: params_block(np.append(v, 1.0)), "461 entries"),
        "one byte short": (
            lambda p, v: base64.b64encode(base64.b64decode(p)[:-1]).decode("ascii"),
            "multiple of element size"),
        "float64 bytes": (lambda p, v: params_block(v, "<f8"), "920 entries, expected 460"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
    def test_unreadable_block_rejected(self, tmp_path, case):
        spoil, message = self.BAD_BLOCKS[case]
        model = small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["params"] = spoil(payload["params"], model.vector.astype(np.float64))
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(str(path))) as exc:
            load_model(path)
        assert message in str(exc.value)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(FormatError):
            load_model(path)


# The training step as first written: np.where LeakyReLU, a fresh array for
# every intermediate, and out-of-place Adam, over the two views stacked into
# one matrix, all in the parameters' dtype.  Its encoder is
# ``oracles.ref_encode``, which computes LayerNorm's statistics and the
# folded second encoder layer as the module does, and the module's step
# writes into reused work arrays and must match it bit for bit.
# plain_encode and plain_backward below are the unfolded formula.

def ref_leaky_grad(z):
    return np.where(z > 0.0, 1.0, LEAKY_SLOPE).astype(z.dtype)


def ref_backward(p, enc, dec, d_out, d_e):
    ones = np.ones(d_out.shape[0], d_out.dtype)
    grads = {"w4": dec["a3"].T @ d_out, "b4": ones @ d_out}
    d_a3 = d_out @ p["w4"].T
    d_z3 = d_a3 * ref_leaky_grad(dec["z3"])
    grads["w3"] = enc["e"].T @ d_z3
    grads["b3"] = ones @ d_z3
    d_e = d_e + d_z3 @ p["w3"].T
    g = enc["xhat"].T @ d_e
    grads["b2"] = ones @ d_e
    grads["w2"] = p["gamma"][:, None] * g + np.multiply.outer(p["beta"], grads["b2"])
    grads["gamma"] = np.einsum("ij,ij->i", p["w2"], g)
    grads["beta"] = p["w2"] @ grads["b2"]
    d_xhat = d_e @ enc["w2f"].T
    mean_dx = ref_row_mean(d_xhat)
    mean_dx_xhat = ref_row_mean(d_xhat, enc["xhat"])
    d_a1 = (d_xhat - mean_dx - enc["xhat"] * mean_dx_xhat) * enc["inv_std"]
    d_z1 = d_a1 * ref_leaky_grad(enc["z1"])
    grads["w1"] = enc["x"].T @ d_z1
    grads["b1"] = ones @ d_z1
    return grads


def plain_encode(p, x):
    """The encoder as written down: LayerNorm's affine, then the second layer."""
    z1 = x @ p["w1"] + p["b1"]
    a1 = ref_leaky(z1)
    mu = a1.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(a1.var(axis=1, keepdims=True) + LN_EPS)
    xhat = (a1 - mu) * inv_std
    ln = xhat * p["gamma"] + p["beta"]
    return {"x": x, "z1": z1, "xhat": xhat, "inv_std": inv_std, "ln": ln,
            "e": ln @ p["w2"] + p["b2"]}


def plain_backward(p, enc, dec, d_out, d_e):
    """The backward pass of plain_encode, through the affine's (rows, h) arrays."""
    grads = {"w4": dec["a3"].T @ d_out, "b4": d_out.sum(axis=0)}
    d_z3 = (d_out @ p["w4"].T) * ref_leaky_grad(dec["z3"])
    grads["w3"] = enc["e"].T @ d_z3
    grads["b3"] = d_z3.sum(axis=0)
    d_e = d_e + d_z3 @ p["w3"].T
    grads["w2"] = enc["ln"].T @ d_e
    grads["b2"] = d_e.sum(axis=0)
    d_ln = d_e @ p["w2"].T
    grads["gamma"] = (d_ln * enc["xhat"]).sum(axis=0)
    grads["beta"] = d_ln.sum(axis=0)
    d_xhat = d_ln * p["gamma"]
    mean_dx = d_xhat.mean(axis=1, keepdims=True)
    mean_dx_xhat = (d_xhat * enc["xhat"]).mean(axis=1, keepdims=True)
    d_a1 = (d_xhat - mean_dx - enc["xhat"] * mean_dx_xhat) * enc["inv_std"]
    d_z1 = d_a1 * ref_leaky_grad(enc["z1"])
    grads["w1"] = enc["x"].T @ d_z1
    grads["b1"] = d_z1.sum(axis=0)
    return grads


def ref_grad_on_views(model, x1, x2, x, encoder=ref_encode, backward=ref_backward):
    p, cfg = model.params, model.config
    x1, x2, x = (np.asarray(a, dtype=model.dtype) for a in (x1, x2, x))
    n, d = x.shape
    k = cfg.latent_dim
    enc = encoder(p, np.vstack([x1, x2]))
    dec = ref_decode(p, enc["e"])
    e1, e2 = enc["e"][:n], enc["e"][n:]
    comps = (
        loss_reconstruction(dec["out"][:n], dec["out"][n:], x),
        loss_contrastive(e1, e2),
        loss_distance(e1, e2),
    )
    d_out = (dec["out"] - np.vstack([x, x])) / (n * d)
    d_e1 = 2.0 * (e1 - e2) / (n * k)
    d_e2 = -d_e1
    dots = (e1 * e2).sum(axis=1, keepdims=True)
    d_e1 = d_e1 + (2.0 / n) * dots * e2
    d_e2 = d_e2 + (2.0 / n) * dots * e1
    return comps, backward(p, enc, dec, d_out, np.vstack([d_e1, d_e2]))


def ref_train(X, cfg):
    """Parameters, per-epoch losses and stop reason of the reference loop."""
    model = init_model(cfg)
    p = model.params
    X = X.astype(model.dtype)
    rng = RngStream(cfg.seed, stream_id=1)
    m = {key: np.zeros_like(v) for key, v in p.items()}
    v = {key: np.zeros_like(a) for key, a in p.items()}
    b1, b2, eps, t = 0.9, 0.999, 1e-8, 0
    lr = contrastive.LEARNING_RATE
    n = X.shape[0]
    batch = min(contrastive.BATCH_SIZE, n)
    losses = {"total": [], "reconstruction": [], "contrastive": [], "distance": []}
    stop = "max-epochs"
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        sums, batches = np.zeros(3), 0
        for lo in range(0, n, batch):
            x = X[order[lo : lo + batch]]
            x1, x2 = augment(x, cfg, rng)
            comps, grads = ref_grad_on_views(model, x1, x2, x)
            t += 1
            b1t, b2t = 1.0 - b1**t, 1.0 - b2**t
            for key in p:
                g = grads[key]
                m[key] = b1 * m[key] + (1.0 - b1) * g
                v[key] = b2 * v[key] + (1.0 - b2) * (g * g)
                p[key] -= lr * (m[key] / b1t) / (np.sqrt(v[key] / b2t) + eps)
            sums += comps
            batches += 1
        means = sums / batches
        for name, value in zip(("reconstruction", "contrastive", "distance"), means):
            losses[name].append(float(value))
        losses["total"].append(float(means.sum()))
        if epoch >= STABLE_WINDOW:
            ref = losses["total"][-1 - STABLE_WINDOW]
            if abs(ref - losses["total"][-1]) / max(abs(ref), 1e-12) < cfg.tolerance:
                stop = "stabilized"
                break
    return model, losses, stop


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMatchesReferenceStep:
    @settings(max_examples=25, deadline=None)
    @given(
        # one batch of the whole set up to 256 rows, a full batch and a
        # shorter one above
        n=st.integers(min_value=2, max_value=600),
        d=st.integers(min_value=1, max_value=70),
        noise=st.sampled_from(["gaussian", "mask"]),
        epochs=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # train-wide's shape: n x h x 4 bytes is 256 KiB for the stacked batch
    @example(n=504, d=64, noise="gaussian", epochs=2, seed=3)
    # a partial last batch below 64 KiB, and a batch of the whole set
    @example(n=300, d=8, noise="mask", epochs=3, seed=1)
    @example(n=40, d=4, noise="gaussian", epochs=3, seed=6)
    # a last batch of one row: two stacked rows in the sliced work arrays
    @example(n=257, d=6, noise="mask", epochs=2, seed=2)
    def test_training_is_bit_identical(self, n, d, noise, epochs, seed):
        rng = RngStream(seed, 3)
        X = rng.normal(n, d) * (1.0 + 3.0 * rng.uniform(1, d))
        cfg = TclConfig(input_dim=d, noise=noise, max_epochs=epochs, tolerance=1e-3, seed=seed)
        model, trace = train_tcl(X, cfg)
        ref_model, losses, stop = ref_train(X, cfg)
        assert same_bits(model.vector, ref_model.vector)
        for name, values in losses.items():
            assert same_bits(getattr(trace, name), values), name
        assert (trace.epochs, trace.stop_reason) == (len(losses["total"]), stop)
        assert same_bits(embed(model, X), ref_embed(ref_model, X))

    def test_gradients_at_exact_zeros_of_z1(self):
        cfg = TclConfig(input_dim=5, seed=4)
        for dtype in DTYPES:
            model = in_dtype(init_model(cfg), dtype)
            model.params["b1"][:4] = 0.0  # zero rows of x give z1 entries of exactly 0.0
            x = RngStream(94, 0).normal(6, 5)
            x[:3] = 0.0
            x1, x2 = x.copy(), x + 0.01 * RngStream(95, 0).normal(6, 5)
            x2[:3] = 0.0
            z1 = ref_encode(model.params, x1)["z1"]
            assert (z1 == 0.0).any()
            total, comps, grads = grad_on_views(model, x1, x2, x)
            ref_comps, ref_grads = ref_grad_on_views(model, x1, x2, x)
            assert (comps.reconstruction, comps.contrastive, comps.distance) == ref_comps
            for key in PARAM_KEYS:
                assert same_bits(grads[key], ref_grads[key]), (dtype, key)

    def test_leaky_and_its_slope_at_signed_zeros(self):
        # the matrix product never yields -0.0, so the element functions are
        # checked on their own at both zeros, subnormals and large values,
        # in each dtype
        for z in (
            np.array([[0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 1.5, -2.5]]),
            np.array([[0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, 3e38, -3e38, 1.5, -2.5]],
                     dtype=np.float32),
        ):
            out = np.empty_like(z)
            assert same_bits(contrastive._leaky(z, out), ref_leaky(z))
            assert same_bits(contrastive._leaky_slope(z, out), ref_leaky_grad(z))
            assert np.signbit(contrastive._leaky(z, out)[0, 1])


class TestFoldedLayerNorm:
    """The module folds LayerNorm's affine into the second encoder layer; the
    unfolded formula, in float64 at random parameters, is its oracle.  Over
    1500 random inputs of widths 1 to 40 the largest difference measured
    1.6e-15 of the largest embedding and 1.5e-15 of the largest gradient
    entry."""

    BOUND = 1e-13

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=40),  # hidden 16 to 80, latent 8 to 40
        noise=st.sampled_from(["gaussian", "mask"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_unfolded_formula(self, n, d, noise, seed):
        cfg = TclConfig(input_dim=d, noise=noise, seed=seed)
        model = perturbed(init_model(cfg), seed)
        rng = RngStream(seed, 8)
        x = rng.normal(n, d)
        e, plain = encode(model, x), plain_encode(model.params, x)["e"]
        assert np.abs(e - plain).max() <= self.BOUND * np.abs(plain).max()
        x1, x2 = augment(x, cfg, rng)
        _, _, grads = grad_on_views(model, x1, x2, x)
        _, plain = ref_grad_on_views(model, x1, x2, x, plain_encode, plain_backward)
        g, plain = flat_grads(grads), flat_grads(plain)
        assert np.abs(g - plain).max() <= self.BOUND * np.abs(plain).max()


def block_rows(model):
    """Rows per inference block: the model's itemsize sets the row bytes."""
    row_bytes = model.params["w1"].itemsize * model.config.hidden_dim
    return max(1, contrastive._BLOCK_BYTES // row_bytes)


def ref_embed(model, x):
    """The reference encoder applied over inference's row blocks, stacked."""
    rows = block_rows(model)
    blocks = [ref_encode(model.params, x[lo : lo + rows])["e"] for lo in range(0, len(x), rows)]
    return np.concatenate(blocks) if blocks else ref_encode(model.params, x)["e"]


class TestBlockedInference:
    """``embed`` runs the training step's encoder over row blocks; each
    block's rows must hold the bits of the reference encoder on that block."""

    @settings(max_examples=40, deadline=None)
    @given(
        # clamp(2d, 16, 256) makes any even hidden width: d = 9, 25 and 65
        # give 18, 50 and 130, no multiple of 16; d = 1 and 3 give 16, and
        # 24, 48, 64 and 128 give 48, 96, 128 and 256
        d=st.sampled_from([1, 3, 9, 24, 25, 48, 64, 65, 128]),
        # n = blocks * rows + extra: 0, 1, rows - 1, rows, rows + 1, 3 rows + 17
        blocks_extra=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 17)]),
        seed=st.integers(min_value=0, max_value=2**16),
        dtype=st.sampled_from(DTYPES),
    )
    @example(d=48, blocks_extra=(3, 17), seed=0, dtype=np.float32)  # gate-tall's widths
    @example(d=3, blocks_extra=(1, 1), seed=1, dtype=np.float32)
    @example(d=3, blocks_extra=(1, 1), seed=1, dtype=np.float64)
    @example(d=9, blocks_extra=(3, 17), seed=2, dtype=np.float32)
    @example(d=25, blocks_extra=(1, -1), seed=3, dtype=np.float64)
    @example(d=65, blocks_extra=(1, 1), seed=4, dtype=np.float32)
    def test_bit_equal_to_reference_encoder(self, d, blocks_extra, seed, dtype):
        blocks, extra = blocks_extra
        model = in_dtype(small_model(d=d, seed=seed), dtype)
        n = blocks * block_rows(model) + extra
        rng = RngStream(seed, 4)
        x = rng.normal(n, d) * (1.0 + 3.0 * rng.uniform(1, d))
        e = embed(model, x)
        assert e.shape == (n, model.config.latent_dim)
        assert same_bits(e, ref_embed(model, x))

    def test_non_finite_row_in_a_later_block(self):
        model = small_model(d=4)
        rows = block_rows(model)
        x = RngStream(101, 0).normal(2 * rows + 5, 4)
        x[rows + 3, 2] = np.nan
        with pytest.raises(NumericError, match="encoder linear 1"):
            embed(model, x)

    def test_input_and_parameters_untouched(self):
        model = small_model(d=5)
        x = RngStream(102, 0).normal(3 * block_rows(model) + 2, 5)
        x_before = x.copy()
        params_before = {key: v.copy() for key, v in model.params.items()}
        embed(model, x)
        assert same_bits(x, x_before)
        for key in PARAM_KEYS:
            assert same_bits(model.params[key], params_before[key]), key

    def test_threads_get_the_bits_of_sequential_calls(self):
        """Each thread has its own scratch: two threads embedding inputs of
        different shapes with one model, over and over, get the bits that
        one thread gets."""
        model = small_model(d=25)  # 50 hidden units
        rng = RngStream(103, 0)
        xs = [rng.normal(3 * block_rows(model) + 17, 25), rng.normal(block_rows(model) - 1, 25)]
        want = [embed(model, x) for x in xs]
        start, same = threading.Barrier(2), [[], []]

        def work(i):
            start.wait()
            same[i] = [same_bits(embed(model, xs[i]), want[i]) for _ in range(30)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert same == [[True] * 30, [True] * 30]

    def test_first_call_holds_one_block_beside_its_output(self):
        """A thread's first call carves one block of scratch rows, not the
        whole input's: on 20,000 rows of 48 float64 columns a float32 model
        (682 rows per block) traces its output and about 0.74 MB more."""
        model = init_model(TclConfig(input_dim=48))
        x = RngStream(105, 0).normal(20_000, 48)
        traced = {}

        def work():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                e = embed(model, x)
                traced["peak"] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            traced["nbytes"] = e.nbytes

        thread = threading.Thread(target=work)  # a fresh thread: an empty scratch
        thread.start()
        thread.join()
        assert traced["nbytes"] == 20_000 * 48 * 4
        assert traced["peak"] <= traced["nbytes"] + 1024 * 1024

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_second_call_of_a_shape_allocates_only_its_output(self, dtype):
        """The cast rows, the block scratch and the finite checks' mask are
        kept from the first call."""
        model = in_dtype(init_model(TclConfig(input_dim=48, seed=0)), dtype)
        x = RngStream(104, 0).normal(4 * block_rows(model) + 17, 48).astype(np.float32)
        embed(model, x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            e = embed(model, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert e.base is None  # no view of the scratch
        # besides the output: numpy's buffer of 8192 items for an in-place
        # broadcast, and small objects
        assert e.nbytes <= peak <= e.nbytes + 8192 * e.itemsize + 16 * 1024

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_short_first_call_keeps_a_full_block(self, dtype):
        """A thread's first call takes one full block of work arrays, however
        few its rows, so a later call of more rows (or of fewer) allocates
        only its output."""
        model = in_dtype(init_model(TclConfig(input_dim=48, seed=0)), dtype)
        rng = RngStream(106, 0)
        long = 3 * block_rows(model) + 17
        xs = [rng.normal(5, 48), rng.normal(long, 48), rng.normal(7, 48), rng.normal(long, 48)]
        traced = []

        def work():
            embed(model, xs[0])
            tracemalloc.start()
            try:
                for x in xs[1:]:
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    e = embed(model, x)
                    traced.append((tracemalloc.get_traced_memory()[1] - before, e.nbytes))
                    del e
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=work)  # a fresh thread: no work arrays yet
        thread.start()
        thread.join()
        assert len(traced) == 3
        for peak, nbytes in traced:
            # as above: the output, numpy's broadcast buffer and small objects
            assert nbytes <= peak <= nbytes + 8192 * model.dtype.itemsize + 16 * 1024


class TestWorkArrays:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", [1, 3, 9, 25, 48])
    def test_every_array_starts_on_a_64_byte_boundary(self, d, dtype):
        model = in_dtype(small_model(d=d), dtype)
        for rows in (2, 14, 2 * contrastive.BATCH_SIZE):
            arrays = contrastive._work_arrays(model, rows)  # training's table
            assert list(arrays) == list(contrastive._WORK_ARRAYS)
            assert [name for name, a in arrays.items() if a.ctypes.data % 64] == []
        arrays = contrastive._work_arrays(model, block_rows(model), contrastive._ENCODER_ARRAYS)
        assert list(arrays) == list(contrastive._ENCODER_ARRAYS)
        assert [name for name, a in arrays.items() if a.ctypes.data % 64] == []
        assert all(a.dtype == dtype and a.flags.c_contiguous for a in arrays.values())

    def test_outputs_are_not_overwritten_by_later_calls(self):
        model = small_model()
        rng = RngStream(96, 0)
        x, y = rng.normal(5, 4), rng.normal(5, 4)
        e, e_again = embed(model, x), encode(model, x).copy()
        embed(model, y)
        encode(model, y)
        assert same_bits(e, e_again)

    def test_gradients_survive_a_second_call(self):
        model = small_model()
        rng = RngStream(97, 0)
        x = rng.normal(6, 4)
        x1, x2 = augment(x, model.config, rng)
        _, _, grads = grad_on_views(model, x1, x2, x)
        kept = {key: g.copy() for key, g in grads.items()}
        y = rng.normal(6, 4)
        grad_on_views(model, *augment(y, model.config, rng), y)
        for key in PARAM_KEYS:
            assert same_bits(grads[key], kept[key]), key

    def test_loss_is_pure_across_gradient_calls(self):
        model = small_model()
        rng = RngStream(98, 0)
        x = rng.normal(6, 4)
        x1, x2 = augment(x, model.config, rng)
        first = loss_on_views(model, x1, x2, x)
        grad_on_views(model, x1[::-1], x2, x)
        assert loss_on_views(model, x1, x2, x) == first

    def test_views_must_match_the_clean_batch(self):
        model = small_model()
        x = RngStream(99, 0).normal(6, 4)
        with pytest.raises(ValueError, match="share one shape"):
            loss_on_views(model, x[:5], x, x)
        with pytest.raises(ValueError, match="share one shape"):
            grad_on_views(model, x, x[:5], x)

    # a full batch and a short one; one full batch; one short batch
    @pytest.mark.parametrize("n", [300, 256, 100, 32])
    def test_memory_estimate_counts_what_training_holds(self, n):
        # the recorded bytes cover the arrays that live through training:
        # parameters, gradients and Adam's four sets, and the work arrays of
        # the stacked views; the measured peak adds the per-step views,
        # batch and loss temporaries
        X = two_cluster_matrix(n=n, d=24)
        cfg = TclConfig(input_dim=24, max_epochs=1, seed=10)
        batch = min(contrastive.BATCH_SIZE, n)
        arrays = contrastive._work_arrays(init_model(cfg), 2 * batch).values()
        assert all(a.dtype == np.float32 for a in arrays)
        work = sum(a.nbytes for a in arrays)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, trace = train_tcl(X, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = trace.array_bytes
        assert held == work + 4 * 6 * init_model(cfg).vector.size
        assert held <= peak <= 1.5 * held


class TestTrace:
    def test_one_epoch_time_per_epoch(self):
        X = two_cluster_matrix(n=100, d=4)
        _, trace = train_tcl(X, TclConfig(input_dim=4, max_epochs=4, tolerance=0.0, seed=11))
        assert len(trace.epoch_seconds) == trace.epochs == 4
        assert all(s > 0.0 for s in trace.epoch_seconds)
        assert sum(trace.epoch_seconds) <= trace.seconds
