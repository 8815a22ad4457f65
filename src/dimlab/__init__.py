"""dimlab: exact numeration-system cylinders, singular distribution
functions, and desk-scale packing-dimension estimation."""

from .qtilde import (
    Cylinder,
    PMatrix,
    ProbColumn,
    QMatrix,
    cylinder,
    expand,
)
from .measure import f_xi_cylinder, f_xi_point, mu_cylinder
from .criteria import (
    CriterionReport,
    counterexample_spec,
    entropy_ratio,
    entropy_terms,
    pdp_verdict,
    sparse_column_stats,
)
from .dimension import (
    DimensionEstimate,
    MoranSpec,
    ScaleSample,
    box_counts,
    dim_estimate,
    enumerate_cylinders,
    family_dim,
    moran_dim_oracle,
    packing_premeasure,
    premeasure_ordering_check,
)

__version__ = "0.1.0"
