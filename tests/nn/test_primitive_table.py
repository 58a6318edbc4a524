"""Every entry of the autograd primitive table has a finite-difference check.

One parametrized test runs over ``PRIMITIVES``: each name maps to a case
below that builds float64 inputs and applies the op through the public
API.  The analytic gradient of every tensor input is compared with
``numerical_gradient``.  A new table entry without a case fails
``test_every_primitive_has_a_case``.
"""

import numpy as np
import pytest

from repro.eval import OpProfiler
from repro.nn import Tensor, attention_scores, autograd_dtype, bias_gelu, concat, linear
from repro.nn import numerical_gradient
from repro.nn.tensor import PRIMITIVES


def normal(seed, *shape):
    return np.random.default_rng(seed).normal(size=shape)


def away_from_zero(seed, *shape):
    """Values with |x| >= 0.2, where abs and relu are differentiable."""
    x = normal(seed, *shape)
    return np.sign(x) * (np.abs(x) + 0.2)


def positive(seed, *shape):
    return np.abs(normal(seed, *shape)) + 0.5


BLOCKED = np.array([False, False, True])[np.newaxis, np.newaxis, np.newaxis, :]

#: name -> (input arrays, op applied to the input tensors).
CASES = {
    "add": ([normal(0, 3, 4), normal(1, 4)], lambda a, b: a + b),
    "mul": ([normal(0, 3, 4), normal(1, 3, 1)], lambda a, b: a * b),
    "div": ([normal(0, 3, 4), positive(1, 1, 4)], lambda a, b: a / b),
    "pow": ([positive(0, 5)], lambda a: a**1.5),
    "sqrt": ([positive(0, 3, 4)], lambda a: a.sqrt()),
    "abs": ([away_from_zero(0, 7)], lambda a: a.abs()),
    "relu": ([away_from_zero(0, 10)], lambda a: a.relu()),
    "gelu": ([normal(0, 3, 4)], lambda a: a.gelu()),
    "sum": ([normal(0, 2, 3, 4)], lambda a: a.sum(axis=(0, 2))),
    "reshape": ([normal(0, 3, 4)], lambda a: a.reshape(2, 6)),
    "transpose": ([normal(0, 2, 3, 4)], lambda a: a.transpose(2, 0, 1)),
    "getitem": ([normal(0, 4, 2)], lambda a: a[np.array([0, 2, 2])]),
    "matmul": ([normal(0, 2, 3, 4), normal(1, 4, 5)], lambda a, b: a @ b),
    "softmax": ([normal(0, 3, 4)], lambda a: a.softmax(axis=-1)),
    "log_softmax": ([normal(0, 3, 4)], lambda a: a.log_softmax(axis=0)),
    "layer_norm": (
        [normal(0, 2, 3, 4), normal(1, 4), normal(2, 4)],
        lambda x, w, b: x.layer_norm(w, b),
    ),
    "embedding": (
        [normal(0, 5, 3)],
        lambda table: table.embedding(np.array([[1, 4, 1], [0, 2, 4]])),
    ),
    "masked_fill": (
        [normal(0, 3, 4)],
        lambda a: a.masked_fill(normal(1, 3, 4) > 0.0, -2.0),
    ),
    "dropout": (
        [normal(0, 4, 5)],
        lambda a: a.dropout(0.3, np.random.default_rng(0), training=True),
    ),
    "linear": (
        [normal(0, 2, 3, 4), normal(1, 4, 5), normal(2, 5)],
        lambda x, w, b: linear(x, w, b),
    ),
    "bias_gelu": ([normal(0, 3, 5), normal(1, 5)], lambda x, b: bias_gelu(x, b)),
    "attention_scores": (
        [normal(0, 1, 2, 3, 4), normal(1, 1, 2, 3, 4)],
        lambda q, k: attention_scores(q, k, 0.5, BLOCKED),
    ),
    "concat": (
        [normal(0, 2, 3), normal(1, 2, 2), normal(2, 2, 1)],
        lambda *parts: concat(parts, axis=1),
    ),
}


def test_every_primitive_has_a_case():
    assert set(CASES) == set(PRIMITIVES)


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_vjps_match_finite_differences(name):
    arrays, op = CASES[name]
    with autograd_dtype(np.float64):
        inputs = [Tensor(array.copy(), requires_grad=True) for array in arrays]
        with OpProfiler() as prof:
            out = op(*inputs)
        assert name in prof.stats, f"the {name!r} case never calls its primitive"
        # A fixed random cotangent: plain sums hide errors (softmax rows
        # sum to one whatever the input).
        weights = Tensor(normal(99, *out.shape))

        def loss(*tensors):
            return (op(*tensors) * weights).sum()

        loss(*inputs).backward()
        for position, tensor in enumerate(inputs):
            assert tensor.grad is not None, f"input {position} got no gradient"
            # `numerical_gradient` perturbs `tensor` in place, so the loss
            # over all inputs sees each perturbation.
            numeric = numerical_gradient(lambda _: loss(*inputs), tensor)
            np.testing.assert_allclose(
                tensor.grad, numeric, rtol=1e-5, atol=1e-6, err_msg=f"input {position}"
            )
