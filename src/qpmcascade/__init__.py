"""Simulation, design and data-fitting toolkit for cascaded difference
frequency conversion in a two-section periodically poled waveguide."""

from .conversion import (
    LossBudget,
    NoiseCounts,
    NoiseReport,
    Spectrum,
    StepEfficiencyModel,
    budget_transmission,
    convert_spectrum,
    external_from_internal,
    internal_from_external,
    noise_report,
    spectrum_fwhm,
    step_efficiency,
)
from .device import TwoStepDevice, load_device
from .dispersion import (
    BulkIndexProvider,
    SellmeierModel,
    builtin_material,
    load_material,
    sellmeier_index,
)
from .errors import (
    CapabilityError,
    ConverterError,
    DesignError,
    DeviceFileError,
    DomainError,
    MaterialFileError,
    NoSolutionError,
    NumericError,
    RangeError,
    RankDeficiencyError,
)
from .fitting import FitModel, FitResult, auto_initial, fit, model_registry, registry_model
from .modesolver import (
    ModeShortfallWarning,
    ModeSolution,
    ModeSolverIndexProvider,
    WaveguideGeometry,
    marcatili_index,
    solve_modes,
)
from .noisemodel import (
    ParasiticProcess,
    enumerate_parasitics,
    lineshape_analytic,
    planck_weight,
    solve_thermal_sfg_output,
    thermal_sfg_lineshape,
    weighted_sinc2_sum,
)
from .qpm import (
    PhaseMatchMap,
    ProcessSpec,
    SectionSpec,
    TuningPoint,
    degenerate_operating_point,
    phase_mismatch,
    phasematch_map,
    qpm_transfer,
    section_with_solved_period,
    solve_phasematched_pump,
    solve_poling_period,
    tuning_curve,
)
from .spectral import (
    C_NM_THZ,
    ProcessKind,
    Wavelength,
    dfg_target,
)

__version__ = "0.1.0"
