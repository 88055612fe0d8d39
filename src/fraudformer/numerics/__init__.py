"""Dense-tensor engine: reverse-mode autodiff primitives and Adam."""

from .tensor import DimensionError, GradTape, Tensor, active_tape
from .ops import (
    add, add_n, scale, add_const, mul, matmul, matmul_t,
    split_heads, merge_heads, relu, layer_norm, dropout,
    softmax_rows, softmax_ce, conv1d, max_over_time, concat_cols,
    slice_cols, take_rows, normalize_rows, row_diff, reshape,
    concat_rows, sum_all,
)
from .optim import Adam, NonFiniteGradientError
from .gradcheck import grad_check

__all__ = [
    "DimensionError", "GradTape", "Tensor", "active_tape",
    "add", "add_n", "scale", "add_const", "mul",
    "matmul", "matmul_t", "split_heads", "merge_heads",
    "relu", "layer_norm", "dropout", "softmax_rows",
    "softmax_ce", "conv1d", "max_over_time", "concat_cols", "slice_cols",
    "take_rows", "normalize_rows", "row_diff", "reshape", "concat_rows", "sum_all",
    "Adam", "NonFiniteGradientError", "grad_check",
]
