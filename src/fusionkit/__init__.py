"""Exact fusion coefficients for affine Kac-Moody algebras.

The main entry points: build a root system, then ask for weight diagrams,
tensor decompositions, or level-k fusion coefficients. Three fusion backends
(Walton space, Kac-Walton folding, Frenkel-Zhu) cross-certify each other; the
verify module runs the full agreement suites.
"""

from .errors import (
    CapExceededError,
    FusionkitError,
    InternalError,
    ParseError,
    PreconditionError,
    UnsupportedTypeError,
)
from .fusion import (
    FusionTable,
    fusion_coefficient,
    fusion_coefficient_via_fz,
    fusion_table,
    fz_dimension,
    kac_walton_coefficient,
    level_alcove,
    prv_dimension,
    theta_pairing,
    walton_dimension,
)
from .linalg import RationalMatrix
from .multiplicity import (
    WeightDiagram,
    freudenthal_diagram,
    recursion_diagram,
    weight_diagram,
    weyl_dimension,
)
from .repspace import (
    RepModule,
    build_module,
    build_theta_operators,
    cached_module,
    operator_power_block,
)
from .rootdata import (
    CartanType,
    RootSystem,
    Weight,
    build_root_system,
    dual_weight,
    form,
    is_dominant,
    pairing,
    parse_cartan_type,
    reflect,
    root_pairing,
    weyl_elements,
)
from .tensor import (
    TensorDecomposition,
    WeightString,
    greedy_decompose,
    stability_threshold,
    tensor_decompose,
    tensor_multiplicity,
    weight_string,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CartanType",
    "FusionTable",
    "FusionkitError",
    "InternalError",
    "ParseError",
    "PreconditionError",
    "RationalMatrix",
    "RepModule",
    "RootSystem",
    "TensorDecomposition",
    "UnsupportedTypeError",
    "Weight",
    "WeightDiagram",
    "WeightString",
    "build_module",
    "build_root_system",
    "build_theta_operators",
    "cached_module",
    "dual_weight",
    "form",
    "freudenthal_diagram",
    "fusion_coefficient",
    "fusion_coefficient_via_fz",
    "fusion_table",
    "fz_dimension",
    "greedy_decompose",
    "is_dominant",
    "kac_walton_coefficient",
    "level_alcove",
    "operator_power_block",
    "pairing",
    "parse_cartan_type",
    "prv_dimension",
    "recursion_diagram",
    "reflect",
    "root_pairing",
    "stability_threshold",
    "tensor_decompose",
    "tensor_multiplicity",
    "theta_pairing",
    "walton_dimension",
    "weight_diagram",
    "weight_string",
    "weyl_dimension",
    "weyl_elements",
    "__version__",
]
