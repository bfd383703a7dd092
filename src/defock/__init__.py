"""defock: deformed-oscillator coherent and nonclassical states in a
truncated Fock space, with the full nonclassicality diagnostic battery.

State families: canonical and q-deformed coherent states, nonlinear
coherent states of the perturbative minimal-length oscillator,
Gazeau-Klauder states, squeezed states (deformed and harmonic), even/odd
cat states, photon-added coherent states.

Diagnostics: quadrature variances against the generalized uncertainty
bound, Mandel parameter, zero-delay second-order correlation, photon
distributions, wave-packet revival analysis, beam-splitter entanglement
entropies (direct partial trace and closed-form cross-check), and a
moment verification of the coherent-state resolution measure.
"""

from .beamsplitter import (
    BeamSplitter,
    DensityMatrix,
    TwoModeState,
    apply_beamsplitter,
    entropy_scan,
    linear_entropy,
    linear_entropy_closed_form,
    partial_trace,
    von_neumann_entropy,
)
from .deform import Deformation, SpectrumCoeffs
from .errors import (
    DefockError,
    DegenerateStateError,
    DivergenceError,
    PerturbativeRegimeWarning,
    QuadratureError,
    ToleranceError,
    TruncationError,
    ValidationError,
)
from .fock_io import ScanTable, write_csv, write_svg_lineplot
from .measure import MeasureParams, moment_table, omega
from .metrics import (
    GKUncertainty,
    NonclassicalityReport,
    QuadratureStats,
    RevivalTimes,
    XPUncertainty,
    apply_ladder,
    detect_peaks,
    g2_zero,
    gk_autocorrelation,
    gk_uncertainty_product,
    mandel_q,
    nonclassicality_report,
    photon_distribution,
    quadrature_stats,
    revival_times,
    xp_uncertainty,
)
from .states import (
    FockState,
    cat_q,
    gk_coherent,
    glauber,
    ho_squeezed,
    nc_squeezed,
    nlcs,
    pacs_q,
    phi_eigenstate,
    q_coherent,
    squeezed_coeffs_recurrence,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
