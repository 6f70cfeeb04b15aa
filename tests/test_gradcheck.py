import numpy as np
import pytest

from metaformer.gradcheck import check_parameter_group, check_tensor_gradient, numeric_gradient
from metaformer.model import ModelConfig, build
from metaformer.tensor import InvalidArgument, Tensor

MICRO = ModelConfig(dims=(4, 8, 8, 16), depths=(1, 1, 1, 1), num_classes=4, input_size=32, drop_path=0.0)


def test_numeric_gradient_is_an_array_in_the_order_of_its_coords():
    x = np.arange(6.0).reshape(2, 3)
    coords = [(1, 2), (0, 0), (1, 0)]
    grads = numeric_gradient(lambda: float((x * x).sum()), x, coords)
    assert isinstance(grads, np.ndarray) and grads.shape == (3,)
    np.testing.assert_allclose(grads, [10.0, 0.0, 6.0], atol=1e-6)
    assert np.array_equal(x, np.arange(6.0).reshape(2, 3))


def test_check_parameter_group_runs_one_backward_for_all_tensors(monkeypatch):
    model = build(MICRO, seed=0, dtype="f64")
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)), dtype="f64")
    proj = Tensor(rng.standard_normal((2, 4)), dtype="f64")
    calls = []
    backward = Tensor.backward

    def counted_backward(self):
        calls.append(self)
        backward(self)

    monkeypatch.setattr(Tensor, "backward", counted_backward)
    params = dict(model.named_parameters())
    report = check_parameter_group(lambda: (model.forward(x, mode="eval") * proj).sum(), params,
                                   max_coords_per_tensor=2, seed=0)
    assert len(params) > 1 and list(report) == list(params)
    assert len(calls) == 1
    assert max(report.values()) < 1e-4


def _leaves():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype="f64")
    b = Tensor(rng.standard_normal(4), requires_grad=True, dtype="f64")
    return a, b


def test_finite_difference_forwards_run_with_every_checked_leaf_out_of_the_graph():
    a, b = _leaves()
    seen = []

    def loss():
        seen.append((a.requires_grad, b.requires_grad))
        return (a * b).sum()

    report = check_parameter_group(loss, {"a": a, "b": b}, max_coords_per_tensor=3)
    assert max(report.values()) < 1e-6
    assert seen[0] == (True, True)  # the one recorded forward
    assert len(seen) == 1 + 2 * (3 + 3) and set(seen[1:]) == {(False, False)}
    assert a.requires_grad and b.requires_grad

    seen.clear()
    assert check_tensor_gradient(loss, b) < 1e-6
    assert seen[0] == (True, True) and set(seen[1:]) == {(True, False)}
    assert b.requires_grad


@pytest.mark.parametrize("fail_at", [1, 2, 5])
def test_requires_grad_flags_are_restored_when_the_loss_raises_part_way(fail_at):
    a, b = _leaves()
    frozen = Tensor(np.ones(4), dtype="f64")
    calls = []

    def loss():
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("loss failed")
        return (a * b * frozen).sum()

    with pytest.raises(RuntimeError, match="loss failed"):
        check_parameter_group(loss, {"a": a, "b": b, "frozen": frozen})
    assert (a.requires_grad, b.requires_grad, frozen.requires_grad) == (True, True, False)


def test_non_f64_leaves_are_refused_before_any_forward():
    a = Tensor(np.ones((2, 2)), requires_grad=True, dtype="f32")
    calls = []

    def loss():
        calls.append(1)
        return a.sum()

    with pytest.raises(InvalidArgument, match="f64"):
        check_tensor_gradient(loss, a)
    assert calls == [] and a.requires_grad
