"""Tensor-factorized N-D convolutions.

Dense N-D convolution plus its tensor-factorized rewritings (separable CP
chains, Tucker bottlenecks, MobileNet-style blocks, higher-order CP layers
with activations and skip factors), CP/Tucker kernel decomposition, and an
analytic parameter/FLOP cost model. Every factorized forward is verifiable by
oracle equivalence against the direct convolution.
"""

from .container import read_tensor, write_tensor
from .convref import ConvSpec, OpCounter, conv_1x1, conv_nd_direct, conv_nd_naive
from .costs import (
    CostReport,
    StageCost,
    figure6_sweep,
    flops_hocp,
    flops_regular,
    params_hocp,
    params_regular,
)
from .decomp import (
    CpResult,
    KruskalTensor,
    TuckerResult,
    TuckerTensor,
    cp_als,
    depthwise_separable,
    kruskal_to_dense,
    tucker_hooi,
    tucker_to_dense,
)
from .dense import fold, khatri_rao, n_mode_product, unfold
from .errors import ContainerError, DimensionError, RankError
from .layers import (
    CpConvLayer,
    FrozenBatchNorm,
    HoCpConvLayer,
    MobileNetV1Block,
    MobileNetV2Block,
    PReLU,
    ReLU,
    TuckerConvLayer,
    build_mobilenet_v2,
    forward,
    forward_naive,
)
from .pipeline import (
    CompressionResult,
    EquivalenceReport,
    FactorizedPlan,
    compress,
    execute_plan,
    load_plan,
    save_plan,
    verify_equivalence,
)

__version__ = "0.1.0"
