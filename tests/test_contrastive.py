import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabcl.contrastive import (
    PARAM_KEYS,
    TclConfig,
    augment,
    decode,
    embed,
    encode,
    grad_loss,
    grad_on_views,
    init_model,
    load_model,
    loss_contrastive,
    loss_distance,
    loss_on_views,
    loss_reconstruction,
    loss_total,
    param_vector,
    replace_params,
    save_model,
    train_tcl,
)
from tabcl.exceptions import FormatError, TrainingError
from tabcl.numerics import RngStream, finite_diff_grad

from conftest import two_cluster_matrix


def small_model(d=4, h=6, k=3, seed=0, **kw):
    cfg = TclConfig(input_dim=d, hidden_dim=h, latent_dim=k, seed=seed, **kw)
    return init_model(cfg)


def flat_grads(grads):
    return np.concatenate([grads[k].ravel() for k in PARAM_KEYS])


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
        with pytest.raises(ValueError):
            TclConfig(input_dim=3, temperature=0.0)
        with pytest.raises(ValueError):
            TclConfig(input_dim=3, batch_size=1)
        with pytest.raises(ValueError):
            TclConfig(input_dim=3, noise="salt")
        with pytest.raises(ValueError):
            TclConfig(input_dim=3, mask_prob=1.5)

    def test_round_trip(self):
        cfg = TclConfig(input_dim=5, sigma=0.3, noise="mask")
        assert TclConfig.from_dict(cfg.to_dict()) == cfg
        assert list(cfg.to_dict()) == [  # the key order of model.json
            "input_dim", "hidden_dim", "latent_dim", "noise", "sigma", "mask_prob",
            "temperature", "batch_size", "max_epochs", "tolerance", "learning_rate", "seed",
        ]


class TestAugment:
    def test_zero_sigma_returns_originals(self):
        x = RngStream(70, 0).normal(5, 4)
        cfg = TclConfig(input_dim=4, sigma=0.0)
        x1, x2 = augment(x, cfg, RngStream(1, 0))
        np.testing.assert_array_equal(x1, x)
        np.testing.assert_array_equal(x2, x)

    def test_same_stream_reproduces_pair(self):
        x = RngStream(71, 0).normal(5, 4)
        cfg = TclConfig(input_dim=4, sigma=0.1)
        a = augment(x, cfg, RngStream(2, 0))
        b = augment(x, cfg, RngStream(2, 0))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_views_differ_under_noise(self):
        x = RngStream(72, 0).normal(5, 4)
        x1, x2 = augment(x, TclConfig(input_dim=4, sigma=0.2), RngStream(3, 0))
        assert not np.array_equal(x1, x2)
        assert not np.array_equal(x1, x)

    def test_full_mask_zeroes_everything(self):
        x = RngStream(73, 0).normal(5, 4) + 10
        cfg = TclConfig(input_dim=4, noise="mask", mask_prob=1.0)
        x1, x2 = augment(x, cfg, RngStream(4, 0))
        assert np.all(x1 == 0.0) and np.all(x2 == 0.0)

    def test_zero_mask_prob_keeps_everything(self):
        x = RngStream(74, 0).normal(5, 4)
        cfg = TclConfig(input_dim=4, noise="mask", mask_prob=0.0)
        x1, x2 = augment(x, cfg, RngStream(5, 0))
        np.testing.assert_array_equal(x1, x)
        np.testing.assert_array_equal(x2, x)


class TestEncodeDecode:
    def test_zero_parameters_give_zero_outputs(self):
        model = small_model()
        zeros = replace_params(model, np.zeros(param_vector(model).size))
        x = RngStream(75, 0).normal(3, 4)
        assert np.all(encode(zeros, x) == 0.0)
        assert np.all(decode(zeros, np.ones((3, 3))) == 0.0)

    def test_shapes(self):
        model = small_model()
        assert encode(model, np.zeros((1, 4))).shape == (1, 3)
        assert decode(model, np.zeros((1, 3))).shape == (1, 4)

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
            decode(model, np.zeros((2, 4)))

    def test_embed_is_encode(self):
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
        assert loss_contrastive(e1, e2, 1.0) == 0.0  # orthogonal rows
        both = np.array([[1.0, 1.0]])
        assert loss_contrastive(both, both, 1.0) == 4.0  # dot = 2, squared = 4
        assert loss_contrastive(both, both, 2.0) == 2.0  # halved by temperature

    def test_contrastive_matches_loop_oracle(self):
        rng = RngStream(82, 0)
        a, b = rng.normal(5, 3), rng.normal(5, 3)
        acc = 0.0
        for i in range(5):
            dot = sum(a[i, j] * b[i, j] for j in range(3))
            acc += dot * dot
        assert abs(loss_contrastive(a, b, 1.7) - acc / 5 / 1.7) < 1e-12

    def test_temperature_linearity_is_exact(self):
        rng = RngStream(83, 0)
        for _ in range(100):
            a, b = rng.normal(4, 3), rng.normal(4, 3)
            tau = float(rng.uniform(1, 1)[0, 0] * 5 + 0.1)
            assert loss_contrastive(a, b, tau) == loss_contrastive(a, b, 1.0) / tau

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_components_are_non_negative(self, n, k, seed):
        rng = RngStream(seed, 0)
        a, b, x = rng.normal(n, k), rng.normal(n, k), rng.normal(n, k)
        assert loss_reconstruction(a, b, x) >= 0.0
        assert loss_distance(a, b) >= 0.0
        assert loss_contrastive(a, b, 0.5) >= 0.0

    def test_bad_temperature(self):
        e = np.ones((2, 2))
        with pytest.raises(ValueError):
            loss_contrastive(e, e, 0.0)


class TestTotalLoss:
    def test_decomposition_is_bit_exact(self):
        model = small_model()
        rng = RngStream(84, 0)
        x = rng.normal(6, 4)
        x1, x2 = augment(x, model.config, rng)
        total, comps = loss_on_views(model, x1, x2, x)
        e1, e2 = encode(model, x1), encode(model, x2)
        r = loss_reconstruction(decode(model, e1), decode(model, e2), x)
        c = loss_contrastive(e1, e2, model.config.temperature)
        d = loss_distance(e1, e2)
        assert total == r + c + d

    def test_row_permutation_invariance(self):
        model = small_model()
        rng = RngStream(85, 0)
        x = rng.normal(7, 4)
        x1, x2 = augment(x, model.config, rng)
        total, _ = loss_on_views(model, x1, x2, x)
        perm = RngStream(86, 0).permutation(7)
        total_p, _ = loss_on_views(model, x1[perm], x2[perm], x[perm])
        assert abs(total - total_p) <= 1e-12 * max(1.0, abs(total))

    def test_loss_total_draws_from_stream(self):
        model = small_model()
        x = RngStream(87, 0).normal(6, 4)
        t1, c1 = loss_total(x, model, RngStream(9, 0))
        t2, c2 = loss_total(x, model, RngStream(9, 0))
        assert t1 == t2 and c1 == c2

    def test_noise_free_fixed_point(self):
        # when the model autoencodes the batch perfectly and noise is off,
        # reconstruction and distance vanish; the contrastive term need not
        cfg = TclConfig(input_dim=2, hidden_dim=4, latent_dim=2, sigma=0.0, seed=1)
        model = init_model(cfg)
        x = RngStream(88, 0).normal(5, 2)
        e = encode(model, x)
        # build a fake perfect decoder by evaluating against its own output
        _, comps = loss_on_views(model, x, x, decode(model, e))
        assert comps.distance == 0.0
        # reconstruction compares decode(e) with itself
        assert comps.reconstruction == 0.0


class TestGradients:
    def test_matches_finite_differences(self):
        for noise, seed in (("gaussian", 90), ("mask", 91)):
            cfg = TclConfig(
                input_dim=5, hidden_dim=8, latent_dim=4, noise=noise,
                sigma=0.3, mask_prob=0.3, temperature=1.3, seed=seed,
            )
            model = init_model(cfg)
            rng = RngStream(seed, 5)
            x = rng.normal(6, 5)
            x1, x2 = augment(x, cfg, rng)
            _, _, grads = grad_on_views(model, x1, x2, x)
            f = lambda t: loss_on_views(replace_params(model, t), x1, x2, x)[0]
            numeric = finite_diff_grad(f, param_vector(model), eps=1e-5)
            analytic = flat_grads(grads)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-4

    def test_decoder_bias_gradient_hand_derivation(self):
        # zero parameters, zero noise: out = b4 = 0, so the reconstruction
        # gradient of the final bias is -(2/(n*d)) * column sums of x
        cfg = TclConfig(input_dim=3, hidden_dim=4, latent_dim=2, sigma=0.0, seed=0)
        model = replace_params(init_model(cfg), np.zeros(param_vector(init_model(cfg)).size))
        x = RngStream(92, 0).normal(5, 3)
        _, _, grads = grad_loss(model, x, RngStream(0, 0))
        expected = -(2.0 / (5 * 3)) * x.sum(axis=0)
        np.testing.assert_allclose(grads["b4"], expected, atol=1e-12)
        # all other gradients vanish at the all-zero stationary point
        for key in PARAM_KEYS:
            if key != "b4":
                assert np.allclose(grads[key], 0.0, atol=1e-12)

    def test_contrastive_term_stationary_at_orthogonal_rows(self):
        # per-row dots of zero kill the contrastive gradient: perturbing one
        # embedding changes the loss only at second order
        e1 = np.array([[1.0, 0.0], [0.0, 2.0]])
        e2 = np.array([[0.0, 3.0], [1.0, 0.0]])
        base = loss_contrastive(e1, e2, 1.0)
        assert base == 0.0
        eps = 1e-6
        bumped = e1.copy()
        bumped[0, 0] += eps
        assert abs(loss_contrastive(bumped, e2, 1.0) - base) < 1e-10


class TestTraining:
    def test_loss_halves_on_clustered_data(self):
        X = two_cluster_matrix(n=400, d=5)
        cfg = TclConfig(input_dim=5, batch_size=128, max_epochs=15, tolerance=0.0, seed=2)
        model, trace = train_tcl(X, cfg)
        assert trace.total[-1] <= 0.5 * trace.total[0]
        assert all(np.isfinite(v) and v >= 0 for v in trace.total)

    def test_bit_exact_determinism(self):
        X = two_cluster_matrix(n=300, d=4)
        cfg = TclConfig(input_dim=4, batch_size=64, max_epochs=5, seed=7)
        m1, t1 = train_tcl(X, cfg)
        m2, t2 = train_tcl(X, cfg)
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(m1.params[key], m2.params[key])
        assert t1.total == t2.total

    def test_zero_tolerance_runs_all_epochs(self):
        X = two_cluster_matrix(n=300, d=4)
        cfg = TclConfig(input_dim=4, batch_size=64, max_epochs=15, tolerance=0.0, seed=3)
        _, trace = train_tcl(X, cfg)
        assert trace.epochs == 15
        assert trace.stop_reason == "max-epochs"

    def test_stabilization_stops_early(self):
        X = two_cluster_matrix(n=300, d=4)
        cfg = TclConfig(input_dim=4, batch_size=300, max_epochs=100, tolerance=0.5, seed=4)
        _, trace = train_tcl(X, cfg)
        assert trace.stop_reason == "stabilized"
        assert trace.epochs < 100

    def test_divergence_raises_training_error(self):
        X = two_cluster_matrix(n=300, d=4)
        cfg = TclConfig(input_dim=4, batch_size=32, max_epochs=50, learning_rate=30.0, seed=5)
        with pytest.raises(TrainingError, match="smaller learning rate"):
            train_tcl(X, cfg)

    def test_batch_clipped_to_dataset_size(self):
        X = two_cluster_matrix(n=40, d=4)
        cfg = TclConfig(input_dim=4, batch_size=256, max_epochs=3, seed=6)
        _, trace = train_tcl(X, cfg)
        assert trace.epochs == 3

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
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(loaded.params[key], model.params[key])
        x = RngStream(93, 0).normal(5, 4)
        np.testing.assert_array_equal(embed(loaded, x), embed(model, x))

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

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(FormatError):
            load_model(path)
