"""Dispersion models: unit deviances, exponential dispersion families,
Tweedie power-variance models, saddlepoint and Lugannani-Rice
approximations, proper dispersion models, characteristic-function-based
model construction, and IRLS fitting of exponential-family (non)linear
regressions.
"""

from .deviance import (
    DEVIANCES,
    VARIANCE_FUNCTIONS,
    UnitDeviance,
    VarianceFunction,
    check_unit_deviance,
    eval_deviance,
    get_deviance,
    second_derivative_identity,
    transform_deviance,
    unit_variance,
    variance_stabilizing_transform,
)
from .edm import (
    FAMILIES,
    EdmFamily,
    MorrisSpec,
    cgf,
    cumulant,
    density,
    edm_deviance,
    family_from_config,
    get_family,
    inverse_mean,
    mean_value,
    morris_family,
    sample_mean_family,
    variance_function,
)
from .errors import ConvergenceError, DispersionModelError, DomainError, NumericalError
from .cf_construct import (
    CHARACTERISTIC_FUNCTIONS,
    CfSpec,
    GridSolution,
    cf_deviance,
    cf_unit_deviance,
    convolution_residual,
    kernel,
    solve_normalizer,
)
from .pdm import (
    PDMS,
    PdmSpec,
    YokeSpec,
    check_yokable,
    get_pdm,
    pdm_density,
    pdm_normalizer,
    pivotal_check,
    transformation_pdm,
    yoke_to_deviance,
)
from .regression import (
    LINKS,
    FitResult,
    RegressionModel,
    estimate_tau_mle,
    estimate_tau_moment,
    fit,
    get_link,
    linear_predictor,
    predictor_from_function,
    total_deviance,
)
from .saddlepoint import (
    SaddlepointResult,
    lugannani_rice,
    lugannani_rice_cdf,
    renormalized_saddlepoint,
    saddlepoint_density,
    sample_mean_cdf,
)
from .support import RealInterval
from .tweedie import (
    TweedieFamily,
    tweedie_cdf,
    tweedie_cumulant_generator,
    tweedie_density,
    tweedie_deviance,
    tweedie_family,
    tweedie_zero_mass,
)

__version__ = "0.1.0"
