"""poolattn: pyramid-pooled spatial and channel attention, verified.

The package provides a non-local attention baseline, its pooled
T-anchor variant, a channel affinity module, analytic backward passes
with a finite-difference oracle, closed-form cost accounting, and a toy
training demo, all driven by the `poolattn` CLI.
"""

import os as _os

from .version import __version__
from .errors import (ComparisonError, ConfigurationError, DimensionError, DptFormatError,
                     LabelError, NonFiniteError, OracleError, PoolAttnError,
                     PoolSizeError, ResourceLimitError, TrainingDivergenceError)
from .threads import thread_cap as _thread_cap

# POOLATTN_THREADS caps BLAS parallelism; it must land in the environment
# before numpy loads its backend, hence before any numpy-importing submodule.
# A bad value is left unapplied here; the CLI rejects it with exit 2.
try:
    _cap = _thread_cap()
except ConfigurationError:
    _cap = None
if _cap is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = str(_cap)

from .rng import Rng
from . import ops
from .pooling import (PAPER_EVEN, PAPER_ODD, TOY_EVEN_MATCHED, TOY_ODD, TOY_ODD_MATCHED,
                      PyramidSpec, anchor_count, boundary_histogram, parse_spec,
                      pyramid_pool, pyramid_pool_backward)
from .attention import (CpaMode, CpaModule, ProjectionWeights, SpaMode, SpaModule,
                        cpa_backward, cpa_forward, init_projection, nonlocal_backward,
                        nonlocal_forward, param_count, spa_backward, spa_forward,
                        spa_module)
from .accounting import CostReport, cost_cpa, cost_nonlocal, cost_spa, reduction_ratio
from .gradcheck import GradCheckReport, check_module, finite_diff_grad, run_manifest
from .network import (DpaNetMini, SynthSample, TrainConfig, TrainedReport, build_model,
                      poly_lr, synth_dataset, train)
from .dpt import read_dpt, read_tensor, write_dpt

__all__ = [
    "__version__", "Rng", "ops",
    "PoolAttnError", "DimensionError", "PoolSizeError", "ConfigurationError",
    "LabelError", "NonFiniteError", "TrainingDivergenceError", "OracleError",
    "ComparisonError", "DptFormatError", "ResourceLimitError",
    "PyramidSpec", "PAPER_EVEN", "PAPER_ODD", "TOY_ODD", "TOY_EVEN_MATCHED",
    "TOY_ODD_MATCHED", "anchor_count", "pyramid_pool", "pyramid_pool_backward",
    "boundary_histogram", "parse_spec",
    "ProjectionWeights", "SpaMode", "CpaMode", "SpaModule", "CpaModule",
    "init_projection", "spa_module", "nonlocal_forward", "nonlocal_backward",
    "spa_forward", "spa_backward", "cpa_forward", "cpa_backward", "param_count",
    "CostReport", "cost_nonlocal", "cost_spa", "cost_cpa", "reduction_ratio",
    "GradCheckReport", "finite_diff_grad", "check_module", "run_manifest",
    "DpaNetMini", "TrainConfig", "TrainedReport", "SynthSample", "build_model",
    "synth_dataset", "train", "poly_lr",
    "read_dpt", "write_dpt", "read_tensor",
]
