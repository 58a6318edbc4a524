"""Neural-network substrate: autograd, layers, Transformer, optimizers."""

from .attention import MultiHeadSelfAttention, make_padding_mask
from .functional import (
    accuracy,
    binary_cross_entropy_with_logits,
    cosine_similarity_matrix,
    cosine_similarity_rows,
    cross_entropy,
    mse_loss,
    weighted_cross_entropy,
)
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
    fused_kernels,
    fused_kernels_enabled,
    get_default_dtype,
    linear,
    no_grad,
    numerical_gradient,
    set_default_dtype,
    set_fused_kernels,
    stack,
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
    "accuracy",
    "attention_scores",
    "autograd_dtype",
    "bias_gelu",
    "binary_cross_entropy_with_logits",
    "fused_kernels",
    "fused_kernels_enabled",
    "get_default_dtype",
    "linear",
    "set_default_dtype",
    "set_fused_kernels",
    "concat",
    "cosine_similarity_matrix",
    "cosine_similarity_rows",
    "cross_entropy",
    "load_checkpoint",
    "load_state_archive",
    "make_padding_mask",
    "mse_loss",
    "no_grad",
    "numerical_gradient",
    "save_checkpoint",
    "save_state_archive",
    "stack",
    "weighted_cross_entropy",
]
