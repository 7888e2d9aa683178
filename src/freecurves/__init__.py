"""Exact combinatorics of splitting types for rational curves on varieties.

Subpackages by concern:

- ``splitting``: bundles on the projective line, specialization order,
  slope panels.
- ``nodal``: bundles on a two-component nodal curve, degree bounds,
  admissible smoothings, sharpness witnesses.
- ``stability``: glue-and-smooth balancing at rank <= 5.
- ``variety``: lattice models of nef cones with filtration chambers,
  expected slope panels, certified liberation bounds.
- ``counting``: lattice-point counting functions and the liberated ratio.
- ``cli``: the ``freecurves`` command.

Every value is an exact integer or rational; nothing here rounds.
"""

from .splitting import (
    SplittingType,
    balance_width,
    direct_sum,
    dual,
    is_sequential,
    minimal_slope_ratio,
    most_balanced,
    parse_splitting_type,
    slope,
    slope_panel,
    specializes_to,
    tensor,
)
from .nodal import (
    Alignment,
    NodalType,
    SharpnessWitness,
    admissible_smoothings,
    degbd,
    degbd_m1_closed_form,
    glue,
    parse_nodal_type,
    sharpness_witness,
)
from .stability import (
    BalanceTrace,
    balance,
    balance_step,
    integer_slope_copies,
)
from .variety import (
    Chamber,
    VarietyModel,
    esp,
    liberated_lower_bound,
    pbundle,
    toy_rho1,
    validate,
)
from .counting import (
    CountingConfig,
    CountReport,
    EpsPower,
    EpsTable,
    count_N,
    count_N_liberated,
    r_min,
    ratio_check,
)
from .modelio import LoadedModel, fixture_path, load_model, load_model_file

__version__ = "0.1.0"
