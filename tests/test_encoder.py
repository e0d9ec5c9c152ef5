import numpy as np
import pytest

from bankadapt.encoder import (
    ConfigurationError,
    EncoderParams,
    FrozenEmbedder,
    NumericError,
    encode_and_classify,
    init_params,
    init_params_warm,
    load_params,
    param_gradients,
    save_params,
)
from bankadapt.embank import ChecksumError, FormatError

from conftest import embed_one


class TestFrozenEmbedder:
    def test_basis_vector_maps_to_normalized_projection_column(self):
        emb = FrozenEmbedder.from_seed("image", 0, feat_dim=5, image_dim=7)
        x = np.zeros(7)
        x[0] = 1.0
        col = emb.projection[:, 0]
        want = col / np.linalg.norm(col)
        np.testing.assert_allclose(emb.embed_rows(x[None])[0], want, atol=1e-15)

    def test_same_seed_same_projection(self):
        a = FrozenEmbedder.from_seed("image", 3, 4, 6)
        b = FrozenEmbedder.from_seed("image", 3, 4, 6)
        np.testing.assert_array_equal(a.projection, b.projection)

    def test_image_and_text_towers_share_the_projection(self):
        # alignment between towers is what gives class text features
        # retrieval signal against image features
        img = FrozenEmbedder.from_seed("image", 1, 4, 6)
        txt = FrozenEmbedder.from_seed("text", 1, 4, 6)
        np.testing.assert_array_equal(img.projection, txt.projection)

    def test_outputs_are_unit_norm(self):
        emb = FrozenEmbedder.from_seed("image", 0, 8, 16)
        rng = np.random.default_rng(0)
        out = emb.embed_rows(rng.standard_normal((20, 16)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_vector_is_rejected(self):
        emb = FrozenEmbedder.from_seed("image", 0, 4, 6)
        with pytest.raises(NumericError, match="zero-norm"):
            emb.embed_rows(np.zeros((1, 6)))
        with pytest.raises(NumericError, match="row 1"):
            emb.embed_rows(np.vstack([np.ones(6), np.zeros(6)]))

    def test_embed_rows_matches_single_embed(self):
        emb = FrozenEmbedder.from_seed("image", 2, 5, 9)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 9))
        rows = emb.embed_rows(x)
        for i in range(7):
            np.testing.assert_allclose(rows[i], embed_one(emb, x[i]), atol=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FrozenEmbedder.from_seed("audio", 0, 4, 4)


def tiny_params():
    # hand-set weights small enough to compute the forward pass by hand
    return EncoderParams(
        w1=np.array([[1.0, 0.0], [0.0, -1.0]]),
        b1=np.array([0.0, 0.5]),
        w2=np.array([[0.5, 0.5], [1.0, -1.0]]),
        b2=np.array([0.0, 0.25]),
        head_w=np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]),
        head_b=np.array([0.1, 0.0, -0.1]),
    )


class TestForward:
    def test_hand_computed_logits(self):
        p = tiny_params()
        x = np.array([0.2, -0.4])
        # layer 1: z1 = (0.2, 0.4 + 0.5); a1 = tanh(z1)
        a1 = np.tanh(np.array([0.2, 0.9]))
        v = np.array([0.5 * a1[0] + 0.5 * a1[1], a1[0] - a1[1] + 0.25])
        expected_logits = np.array([v[0] + 0.1, 2.0 * v[1], v[0] + v[1] - 0.1])
        trace = encode_and_classify(p, x)
        np.testing.assert_allclose(trace.logits[0], expected_logits, atol=1e-15)
        np.testing.assert_allclose(trace.embedding[0], v, atol=1e-15)

    def test_probs_are_a_distribution(self):
        p = init_params(0, image_dim=6, hidden_dim=5, feat_dim=4, n_classes=3)
        rng = np.random.default_rng(0)
        trace = encode_and_classify(p, rng.standard_normal((11, 6)))
        np.testing.assert_allclose(trace.probs.sum(axis=1), 1.0, atol=1e-9)
        assert (trace.probs >= 0).all()

    def test_unit_embedding_is_normalized(self):
        p = init_params(1, 6, 5, 4, 3)
        rng = np.random.default_rng(1)
        trace = encode_and_classify(p, rng.standard_normal((9, 6)))
        np.testing.assert_allclose(np.linalg.norm(trace.unit_embedding, axis=1),
                                   1.0, atol=1e-12)

    def test_single_vector_input_promoted(self):
        p = init_params(2, 6, 5, 4, 3)
        trace = encode_and_classify(p, np.ones(6))
        assert trace.logits.shape == (1, 3)

    def test_non_finite_input_names_the_layer(self):
        p = init_params(3, 4, 3, 2, 2)
        with pytest.raises(NumericError, match="input"):
            encode_and_classify(p, np.array([np.inf, 0.0, 0.0, 0.0]))

    def test_zero_embedding_rejected(self):
        p = tiny_params()
        p.w2[:] = 0.0
        p.b2[:] = 0.0
        with pytest.raises(NumericError, match="zero-norm embedding"):
            encode_and_classify(p, np.array([0.3, 0.1]))

    def test_wrong_input_dim_rejected(self):
        p = init_params(4, 6, 5, 4, 3)
        with pytest.raises(ConfigurationError, match="image_dim"):
            encode_and_classify(p, np.ones((2, 5)))


class TestInit:
    def test_zero_hidden_dim_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="hidden_dim"):
            init_params(0, image_dim=4, hidden_dim=0, feat_dim=4, n_classes=2)

    def test_init_is_deterministic(self):
        a = init_params(7, 6, 5, 4, 3)
        b = init_params(7, 6, 5, 4, 3)
        for fa, fb in zip(a.fields(), b.fields()):
            np.testing.assert_array_equal(fa, fb)

    def test_warm_start_tracks_frozen_embedder(self):
        emb = FrozenEmbedder.from_seed("image", 0, feat_dim=8, image_dim=16)
        p = init_params_warm(0, emb, hidden_dim=12, n_classes=3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 16))
        trace = encode_and_classify(p, x)
        frozen = emb.embed_rows(x)
        cos = np.sum(trace.unit_embedding * frozen, axis=1)
        assert cos.min() > 0.9

    def test_warm_start_needs_enough_hidden_units(self):
        emb = FrozenEmbedder.from_seed("image", 0, 8, 16)
        with pytest.raises(ConfigurationError, match="hidden_dim"):
            init_params_warm(0, emb, hidden_dim=4, n_classes=3)


class TestGradients:
    def test_normalization_jacobian_is_tangent(self):
        # (I - v v^T)/||V|| applied to V itself must vanish
        rng = np.random.default_rng(0)
        for _ in range(10):
            v_raw = rng.standard_normal(6)
            norm = np.linalg.norm(v_raw)
            v = v_raw / norm
            jac = (np.eye(6) - np.outer(v, v)) / norm
            assert abs(v @ jac @ v_raw) <= 1e-9

    def test_head_gradient_single_sample_cross_entropy(self):
        # dL/dW for CE through softmax is (p - onehot) V^T
        p = init_params(5, 6, 5, 4, 3)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(6)
        y = 1
        trace = encode_and_classify(p, x)
        d_logits = trace.probs.copy()
        d_logits[0, y] -= 1.0
        grads = param_gradients(p, trace, d_logits=d_logits)
        expected = np.outer(d_logits[0], trace.embedding[0])
        np.testing.assert_allclose(grads.head_w, expected, atol=1e-14)
        np.testing.assert_allclose(grads.head_b, d_logits[0], atol=1e-14)

    def test_backward_matches_finite_differences(self):
        # scalar probe L = <c1, logits> + <c2, v>; exercises the full chain
        # including the normalization Jacobian
        p = init_params(6, image_dim=5, hidden_dim=4, feat_dim=3, n_classes=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5))
        c_logits = rng.standard_normal((4, 2))
        c_unit = rng.standard_normal((4, 3))

        def loss_of(params):
            t = encode_and_classify(params, x)
            return float(np.sum(c_logits * t.logits) + np.sum(c_unit * t.unit_embedding))

        trace = encode_and_classify(p, x)
        grads = param_gradients(p, trace, d_logits=c_logits, d_unit=c_unit)
        step = 1e-6
        for field, g in zip(p.fields(), grads.fields()):
            it = np.nditer(field, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = field[idx]
                field[idx] = orig + step
                up = loss_of(p)
                field[idx] = orig - step
                down = loss_of(p)
                field[idx] = orig
                fd = (up - down) / (2 * step)
                assert abs(fd - g[idx]) <= 1e-6 * max(1.0, abs(g[idx]))

    def test_grad_accumulation_and_norm(self):
        p = init_params(8, 4, 3, 2, 2)
        rng = np.random.default_rng(4)
        trace = encode_and_classify(p, rng.standard_normal((3, 4)))
        d_logits = rng.standard_normal((3, 2))
        g1 = param_gradients(p, trace, d_logits=d_logits)
        g2 = param_gradients(p, trace, d_logits=d_logits)
        total = g1.add_(g2)
        np.testing.assert_allclose(
            total.head_w, 2 * param_gradients(p, trace, d_logits=d_logits).head_w,
            atol=1e-14)
        assert total.norm() > 0


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        p = init_params(9, 7, 6, 5, 4)
        path = tmp_path / "model.datc"
        save_params(p, path)
        back = load_params(path)
        for fa, fb in zip(p.fields(), back.fields()):
            np.testing.assert_array_equal(fa, fb)

    def test_version_mismatch_is_explicit(self, tmp_path):
        p = init_params(10, 4, 3, 2, 2)
        path = tmp_path / "m.datc"
        save_params(p, path)
        data = bytearray(path.read_bytes())
        data[4] = 0xFE
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_params(path)

    def test_corrupted_payload_detected(self, tmp_path):
        p = init_params(11, 4, 3, 2, 2)
        path = tmp_path / "m.datc"
        save_params(p, path)
        data = bytearray(path.read_bytes())
        data[30] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load_params(path)
