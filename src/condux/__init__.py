"""condux: design and certification of inputs that make nonlinear systems
in normal form contracting, with simulation experiments to back it up."""

from .config import ExperimentConfig, config_from_dict, load_config
from .design import (
    CertificateReport,
    FeedforwardResult,
    ImpulseDesign,
    KapitzaDesign,
    OutputReference,
    averaged_gain,
    feedforward_from_reference,
    fhn_impulse_design,
    hh_certificate,
    hh_square_reference,
    kapitza_design,
    lorenz_region_check,
)
from .errors import ConduxError, ConfigError
from .experiments import run_experiment
from .integrate import (
    Trajectory,
    integrate,
)
from .lure import (
    chua_closed_form,
    chua_system,
    describing_function,
    lure_input_reconstruct,
    lure_stability,
)
from .models import (
    ConductanceParams,
    InverseSystem,
    NormalFormModel,
    PlainModel,
    fitzhugh_nagumo,
    hh_conductance,
    kapitza,
    leaky_integrator,
    lorenz,
    neuron_family,
)
from .observer import (
    observer_contraction_check,
    run_observer,
)
from .signals import (
    Constant,
    ImpulseTrain,
    PiecewiseLinear,
    SquarePulseTrain,
    Sum,
)
from .variational import (
    MonodromyResult,
    contraction_probe,
    floquet,
    flow,
    refine_periodic_orbit,
)

__version__ = "0.1.0"
