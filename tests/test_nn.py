import numpy as np
import pytest

from pseudocl import nn


def small_model(seed=0, in_dim=5, width=6, n_hidden=2, out_dim=5):
    return nn.init_model(in_dim, width, n_hidden, out_dim, seed)


def manual_forward(model, x):
    a = np.asarray(x, dtype=float)
    for w, b in model.layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
    w, b = model.layers[-1]
    return a @ w + b


def head_only(w, b):
    return nn.Model(w.shape, np.concatenate([np.ravel(w), b]))


class TestModel:
    def test_layers_are_views_into_params(self):
        m = small_model()
        m.params += 1.0
        w, b = m.layers[0]
        assert np.shares_memory(w, m.params) and np.shares_memory(b, m.params)
        assert sum(w.size + b.size for w, b in m.layers) == m.params.size

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError):
            nn.Model([2, 3], np.zeros(8))

    @pytest.mark.parametrize("dims", [[0, 3], [2, 0], [2, 0, 3]])
    def test_zero_width_rejected(self, dims):
        with pytest.raises(ValueError, match="bad layer widths"):
            nn.Model(dims)


class TestForward:
    def test_zero_weight_model_gives_zero_logits(self):
        m = small_model()
        m.params[:] = 0.0
        assert np.all(nn.forward(m, np.array([[1.0, -2.0, 3.0, 0.5, 7.0]])) == 0.0)

    def test_identity_head_only_model(self):
        m = head_only(np.eye(2), np.zeros(2))
        assert np.allclose(nn.forward(m, np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_matches_manual_matrix_recomputation(self):
        m = small_model(seed=3)
        x = np.random.default_rng(1).standard_normal((3, 5))
        assert np.allclose(nn.forward(m, x), manual_forward(m, x), atol=0, rtol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nn.forward(small_model(), np.ones((1, 7)))

    def test_single_row_vector_rejected(self):
        with pytest.raises(ValueError):
            nn.forward(small_model(), np.ones(5))


class TestExtractFeatures:
    def test_head_only_model_is_identity(self):
        m = head_only(np.ones((3, 2)), np.zeros(2))
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(nn.extract_features(m, x), x)

    def test_unchanged_by_expand_head(self):
        m = small_model(seed=4)
        x = np.random.default_rng(2).standard_normal((3, 5))
        before = nn.extract_features(m, x)
        after = nn.extract_features(nn.expand_head(m, 3, seed=9), x)
        assert np.array_equal(before, after)

    def test_matches_manual_recomputation(self):
        m = small_model(seed=5)
        x = np.random.default_rng(3).standard_normal((3, 5))
        a = x
        for w, b in m.layers[:-1]:
            a = np.maximum(a @ w + b, 0.0)
        assert np.allclose(nn.extract_features(m, x), a, rtol=1e-14)


class TestSoftenedProbs:
    def test_equal_logits_give_uniform(self):
        for m in (2, 5, 9):
            p = nn.softened_probs(np.full(m, 3.7), 2.0)
            assert np.allclose(p, 1.0 / m, atol=1e-12)

    def test_closed_form_two_logits(self):
        p = nn.softened_probs(np.array([np.log(2.0), 0.0]), 1.0)
        assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)

    def test_temperature_two_against_high_precision_oracle(self):
        from mpmath import mp, exp as mpexp
        mp.dps = 50
        logits = [3.0, 1.0, -2.0]
        scaled = [v / 2.0 for v in logits]
        zs = [mpexp(v) for v in scaled]
        total = sum(zs)
        expected = [float(z / total) for z in zs]
        assert np.allclose(nn.softened_probs(np.array(logits), 2.0), expected,
                           atol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            o = rng.standard_normal(6)
            c = rng.standard_normal() * 100
            assert np.allclose(nn.softened_probs(o, 1.7),
                               nn.softened_probs(o + c, 1.7), atol=1e-9)

    def test_sums_to_one(self):
        p = nn.softened_probs(np.array([5.0, -3.0, 0.1, 2.2]), 0.5)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            nn.softened_probs(np.zeros(3), 0.0)


def loss_of(student, teacher, label, alpha, temperature, m):
    """backward's loss for one row through a head-only identity model, so
    that the student logits are ``student``; ``teacher`` holds logits."""
    student = np.asarray(student, dtype=float)
    k = student.size
    model = head_only(np.eye(k), np.zeros(k))
    t = None if teacher is None else nn.softened_probs(
        np.asarray(teacher, dtype=float)[None, :m], temperature)
    loss, _ = nn.backward(model, student[None, :], t, np.array([label]),
                          alpha, temperature, m)
    return loss


def distillation_loss(student, teacher, temperature, m):
    """The alpha = 1 end of backward's loss: L_D alone."""
    return loss_of(student, teacher, 0, 1.0, temperature, m)


def cross_entropy_pseudo(logits, label):
    """The alpha = 0 end of backward's loss: L_C alone."""
    return loss_of(logits, None, label, 0.0, 1.0, 0)


class TestDistillationLoss:
    def test_equal_uniform_logits_give_log_m(self):
        for m in (2, 4, 7):
            logits = np.zeros(m + 2)
            assert np.isclose(distillation_loss(logits, logits, 2.0, m),
                              np.log(m), atol=1e-12)

    def test_student_equals_teacher_gives_entropy(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal(6)
        p = nn.softened_probs(t[:4], 3.0)
        entropy = -np.sum(p * np.log(p))
        assert np.isclose(distillation_loss(t, t, 3.0, 4), entropy, atol=1e-12)

    def test_against_high_precision_oracle(self):
        from mpmath import mp, exp as mpexp, log as mplog
        mp.dps = 50
        teacher, student = [1.0, 0.0], [0.0, 1.0]
        pt = [mpexp(v) for v in teacher]
        ps = [mpexp(v) for v in student]
        pt = [v / sum(pt) for v in pt]
        ps = [v / sum(ps) for v in ps]
        expected = float(-sum(a * mplog(b) for a, b in zip(pt, ps)))
        got = distillation_loss(np.array(student), np.array(teacher), 1.0, 2)
        assert np.isclose(got, expected, atol=1e-14)

    def test_lower_bounded_by_teacher_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            t = rng.standard_normal(5)
            s = rng.standard_normal(5)
            p = nn.softened_probs(t[:3], 2.0)
            entropy = -np.sum(p * np.log(p))
            assert distillation_loss(s, t, 2.0, 3) >= entropy - 1e-12

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError):
            nn.backward(head_only(np.eye(2), np.zeros(2)), np.zeros((1, 2)),
                        np.empty((1, 0)), np.array([0]), 1.0, 1.0, 0)


class TestCrossEntropyPseudo:
    def test_uniform_logits_give_log_k(self):
        for k in (3, 10):
            assert np.isclose(cross_entropy_pseudo(np.zeros(k), k - 1),
                              np.log(k), atol=1e-12)

    def test_peaked_logits_drive_loss_to_zero(self):
        logits = np.array([0.0, 100.0, 0.0])
        assert cross_entropy_pseudo(logits, 1) < 1e-12

    def test_against_high_precision_oracle(self):
        from mpmath import mp, exp as mpexp, log as mplog
        mp.dps = 50
        logits = [2.0, 0.0, -1.0]
        zs = [mpexp(v) for v in logits]
        expected = float(-mplog(zs[1] / sum(zs)))
        assert np.isclose(cross_entropy_pseudo(np.array(logits), 1),
                          expected, atol=1e-14)


class TestCrossDistillation:
    def test_alpha_zero_endpoint_is_pseudo_ce(self):
        rng = np.random.default_rng(3)
        s, t = rng.standard_normal(5), rng.standard_normal(3)
        assert loss_of(s, t, 2, 0.0, 2.0, 3) == cross_entropy_pseudo(s, 2)

    def test_alpha_one_endpoint_is_distillation(self):
        rng = np.random.default_rng(4)
        s, t = rng.standard_normal(5), rng.standard_normal(3)
        z = s[:3] / 2.0
        log_p = z - np.max(z) - np.log(np.sum(np.exp(z - np.max(z))))
        expected = -np.sum(nn.softened_probs(t, 2.0) * log_p)
        assert np.isclose(loss_of(s, t, 2, 1.0, 2.0, 3), expected, atol=1e-12)

    def test_convex_combination(self):
        rng = np.random.default_rng(5)
        s, t = rng.standard_normal(6), rng.standard_normal(4)
        m, n = 4, 2
        expected = (m / 6) * distillation_loss(s, t, 1.5, m) \
            + (2 / 6) * cross_entropy_pseudo(s, 5)
        assert np.isclose(loss_of(s, t, 5, m / (m + n), 1.5, m), expected,
                          atol=1e-12)

    def test_batch_loss_is_mean_of_row_losses(self):
        rng = np.random.default_rng(6)
        x, t = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
        y = np.array([0, 4, 2, 2])
        model = head_only(np.eye(5), np.zeros(5))
        loss, _ = nn.backward(model, x, nn.softened_probs(t, 2.0), y, 0.6,
                              2.0, 3)
        rows = [loss_of(x[i], t[i], y[i], 0.6, 2.0, 3) for i in range(4)]
        assert np.isclose(loss, np.mean(rows), atol=1e-12)


def finite_diff_check(model, x, teacher, y, alpha, temperature, m, step=1e-6):
    loss, grads = nn.backward(model, x, teacher, y, alpha, temperature, m)
    max_rel = 0.0
    p = model.params
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + step
        lp, _ = nn.backward(model, x, teacher, y, alpha, temperature, m)
        p[i] = orig - step
        lm, _ = nn.backward(model, x, teacher, y, alpha, temperature, m)
        p[i] = orig
        fd = (lp - lm) / (2 * step)
        denom = max(abs(fd), 1e-6)
        max_rel = max(max_rel, abs(fd - grads[i]) / denom)
    return max_rel


def grad_layers(model, grads):
    """(w, b) gradient views, laid out as model.layers."""
    return nn.Model(model.dims, grads).layers


class TestBackward:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = nn.init_model(4, 5, 1, 5, seed=11)
        assert model.params.size <= 500
        x = rng.standard_normal((3, 4))
        teacher = nn.softened_probs(rng.standard_normal((3, 3)), 2.0)
        y = rng.integers(0, 5, 3)
        assert finite_diff_check(model, x, teacher, y, 3 / 5, 2.0, 3) < 1e-4

    def test_alpha_zero_head_bias_gradient_closed_form(self):
        rng = np.random.default_rng(8)
        model = nn.init_model(4, 5, 1, 5, seed=12)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 5, 6)
        _, grads = nn.backward(model, x, None, y, 0.0, 1.0, 3)
        logits = nn.forward(model, x)
        probs = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(6), y] = 1.0
        expected = (probs - one_hot).mean(axis=0)
        assert np.allclose(grad_layers(model, grads)[-1][1], expected,
                           atol=1e-12)

    def test_duplicated_sample_keeps_mean_gradient(self):
        rng = np.random.default_rng(9)
        model = nn.init_model(4, 5, 1, 4, seed=13)
        x = rng.standard_normal((1, 4))
        t = nn.softened_probs(rng.standard_normal((1, 2)), 2.0)
        _, g1 = nn.backward(model, x, t, np.array([3]), 0.5, 2.0, 2)
        x2 = np.vstack([x, x])
        t2 = np.vstack([t, t])
        _, g2 = nn.backward(model, x2, t2, np.array([3, 3]), 0.5, 2.0, 2)
        assert np.allclose(g1, g2, atol=1e-14)


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        model = small_model(seed=20)
        _, grads = nn.backward(model, np.ones((2, 5)), None,
                               np.array([0, 1]), 0.0, 2.0, 0)
        before = model.params.copy()
        nn.sgd_step(model, grads, lr=0.0, weight_decay=0.1)
        assert np.array_equal(model.params, before)

    def test_plain_update_arithmetic(self):
        m = head_only(np.array([[1.0]]), np.zeros(1))
        nn.sgd_step(m, np.array([1.0, 0.0]), lr=0.1, weight_decay=0.0)
        assert np.isclose(m.layers[-1][0][0, 0], 0.9)

    def test_decay_only_update(self):
        m = head_only(np.array([[2.0]]), np.zeros(1))
        nn.sgd_step(m, np.zeros(2), lr=0.1, weight_decay=0.5)
        assert np.isclose(m.layers[-1][0][0, 0], 1.9)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-5, 10.0])
    def test_same_bytes_as_update_through_a_temporary(self, weight_decay):
        # the update before it took grads as scratch: params - lr * (decay
        # term + grads), the sum in the other order
        rng = np.random.default_rng(22)
        model = small_model(seed=22)
        size = model.params.size
        model.params *= 10.0 ** rng.integers(-8, 4, size)
        grads = rng.normal(size=size) * 10.0 ** rng.integers(-12, 3, size)
        zeros = [0.0, -0.0]
        # every pairing of signed zero gradients with signed zero and
        # nonzero parameters
        model.params[:8] = zeros * 2 + [1.5, -1.5, 1e-300, -1e-300]
        grads[:8] = zeros + zeros[::-1] + zeros + zeros[::-1]
        grads[8:16] = zeros * 4
        for lr in (0.1, 1e-3):
            params = model.params.copy()
            step = weight_decay * params
            step += grads
            step *= lr
            params -= step
            nn.sgd_step(model, grads.copy(), lr, weight_decay)
            assert model.params.tobytes() == params.tobytes()


class TestExpandHead:
    def test_old_logits_bitwise_preserved(self):
        m = small_model(seed=30)
        expanded = nn.expand_head(m, 4, seed=31)
        x = np.random.default_rng(6).standard_normal((10, 5))
        assert np.array_equal(nn.forward(expanded, x)[:, :5], nn.forward(m, x))

    def test_zero_growth_rejected(self):
        with pytest.raises(ValueError):
            nn.expand_head(small_model(), 0, seed=0)

    def test_chained_expansion_preserves_oldest_logits(self):
        m = small_model(seed=32, out_dim=10)
        once = nn.expand_head(nn.expand_head(m, 10, seed=1), 10, seed=2)
        direct = nn.expand_head(m, 20, seed=3)
        x = np.random.default_rng(7).standard_normal((4, 5))
        base = nn.forward(m, x)
        assert np.array_equal(nn.forward(once, x)[:, :10], base)
        assert np.array_equal(nn.forward(direct, x)[:, :10], base)


class TestWeightAlign:
    @pytest.mark.parametrize("m, n, message", [
        (0, 5, "m and n"), (2, 2, "m \\+ n")], ids=["m-zero", "head-not-m+n"])
    def test_bad_split_rejected(self, m, n, message):
        with pytest.raises(ValueError, match=message):
            nn.weight_align(small_model(seed=40, out_dim=5), m, n)

    def test_ratio_scaling(self):
        w = np.zeros((4, 4))
        w[:, :2] = np.array([[2.0, 2.0], [0, 0], [0, 0], [0, 0]])  # norms 2
        w[:, 2:] = np.array([[4.0, 4.0], [0, 0], [0, 0], [0, 0]])  # norms 4
        m = head_only(w, np.arange(4.0))
        assert nn.weight_align(m, 2, 2) is None
        head_w = m.layers[-1][0]
        assert np.allclose(head_w[:, 2:], 0.5 * w[:, 2:])
        # in place, and only the new-class weight columns
        assert np.array_equal(head_w[:, :2], w[:, :2])
        assert np.array_equal(m.layers[-1][1], np.arange(4.0))
        norms = np.linalg.norm(head_w, axis=0)
        assert abs(norms[:2].mean() - norms[2:].mean()) < 1e-9

    def test_already_balanced_is_noop(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((4, 4))
        norms = np.linalg.norm(w, axis=0)
        w = w / norms  # all columns unit norm
        m = head_only(w, np.zeros(4))
        nn.weight_align(m, 2, 2)
        assert np.allclose(m.layers[-1][0], w, atol=1e-12)

    def test_old_class_argmax_preserved(self):
        model = small_model(seed=40, out_dim=6)
        x = np.random.default_rng(9).standard_normal((50, 5))
        before = np.argmax(nn.forward(model, x)[:, :4], axis=1)
        nn.weight_align(model, 4, 2)
        after = np.argmax(nn.forward(model, x)[:, :4], axis=1)
        assert np.array_equal(before, after)

    def test_zero_new_rows_rejected(self):
        m = small_model(seed=41, out_dim=4)
        m.layers[-1][0][:, 2:] = 0.0
        before = m.params.tobytes()
        with pytest.raises(ValueError):
            nn.weight_align(m, 2, 2)
        assert m.params.tobytes() == before

    @pytest.mark.parametrize("columns", [slice(None, 2), slice(2, None)],
                             ids=["old", "new"])
    def test_overflowing_norms_rejected(self, columns):
        # finite weights of 1e200 have norms that overflow, which would
        # scale the new columns by inf, zero or NaN
        m = small_model(seed=41, out_dim=4)
        m.layers[-1][0][:, columns] *= 1e200
        before = m.params.tobytes()
        with pytest.raises(ValueError, match="norms overflow; cannot align"):
            nn.weight_align(m, 2, 2)
        assert m.params.tobytes() == before


class TestDeterminism:
    def test_identical_seeds_identical_training(self):
        def train_once():
            rng = np.random.default_rng(123)
            model = nn.init_model(4, 6, 2, 3, seed=77)
            for _ in range(10):
                x = rng.standard_normal((5, 4))
                y = rng.integers(0, 3, 5)
                _, g = nn.backward(model, x, None, y, 0.0, 2.0, 0)
                nn.sgd_step(model, g, 0.05, 1e-5)
            return model

        assert np.array_equal(train_once().params, train_once().params)
