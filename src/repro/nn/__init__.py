"""Neural-network substrate: autograd, layers, Transformer, optimizers."""

from .attention import MultiHeadSelfAttention, make_padding_mask
from .functional import cross_entropy, weighted_cross_entropy
from .layers import MLP, Dropout, Embedding, LayerNorm, Linear
from .module import Module, Parameter
from .optim import AdamW, LinearWarmupDecay, LRSchedule, Optimizer
from .serialization import (
    load_checkpoint,
    load_state_archive,
    save_checkpoint,
    save_state_archive,
)
from .tensor import (
    Tensor,
    attention_scores,
    autograd_dtype,
    bias_gelu,
    concat,
    get_default_dtype,
    linear,
    no_grad,
    numerical_gradient,
    set_default_dtype,
)
from .transformer import (
    LMHead,
    TransformerConfig,
    TransformerEncoder,
    TransformerLayer,
)

__all__ = [
    "AdamW",
    "Dropout",
    "Embedding",
    "LMHead",
    "LRSchedule",
    "LayerNorm",
    "Linear",
    "LinearWarmupDecay",
    "MLP",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Parameter",
    "Tensor",
    "TransformerConfig",
    "TransformerEncoder",
    "TransformerLayer",
    "attention_scores",
    "autograd_dtype",
    "bias_gelu",
    "get_default_dtype",
    "linear",
    "set_default_dtype",
    "concat",
    "cross_entropy",
    "load_checkpoint",
    "load_state_archive",
    "make_padding_mask",
    "no_grad",
    "numerical_gradient",
    "save_checkpoint",
    "save_state_archive",
    "weighted_cross_entropy",
]
