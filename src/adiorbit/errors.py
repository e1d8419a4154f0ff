"""Exception hierarchy shared by all adiorbit modules.

Two broad families matter for the command line front end: configuration
and input problems (bad files, incompatible grids, missing data) versus
numerical failures discovered mid-computation (degeneracies, tracking
ambiguities, perturbative breakdown). The CLI maps the former to exit
code 2 and the latter to exit code 3.
"""


class AdiorbitError(Exception):
    """Base class for all library errors."""

    #: subsystem the error originates from, used in CLI diagnostics
    module = "adiorbit"


class InputError(AdiorbitError):
    """Invalid input, configuration, or incompatible data (CLI exit 2)."""


class NumericalError(AdiorbitError):
    """Failure detected during a numerical computation (CLI exit 3)."""


class ZeroHamiltonian(InputError):
    """The raw Hamiltonian vanishes at the probe time; no energy scale."""

    module = "model"


class NonHermitianInput(InputError):
    """A matrix that must be Hermitian is not."""

    module = "model"


class InvalidSamples(InputError):
    """A model evaluator returned samples of the wrong shape or with
    non-finite entries."""

    module = "model"


class ParseError(InputError):
    """A tabulated-model file could not be parsed."""

    module = "model"


class NonHermitianSample(ParseError):
    """A tabulated sample violates Hermiticity; carries the row index."""

    def __init__(self, row, detail=""):
        self.row = row
        msg = f"sample at data row {row} is not Hermitian"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonMonotoneTime(ParseError):
    """Tabulated times are not strictly increasing."""


class DegenerateGap(NumericalError):
    """Two instantaneous levels approach within the gap tolerance."""

    module = "spectrum"

    def __init__(self, tau, levels, gap, gap_tol):
        self.tau = tau
        self.levels = levels
        self.gap = gap
        super().__init__(
            f"levels {levels[0]} and {levels[1]} are separated by "
            f"{gap:.3e} < gap_tol={gap_tol:.3e} at tau={tau:.6g}"
        )


class AssignmentAmbiguous(NumericalError):
    """Level tracking could not match eigenvectors across a step."""

    module = "spectrum"


class AnalyticFrameUnavailable(InputError, ValueError):
    """The analytic gauge was asked of a model without a closed-form
    eigenframe."""

    module = "spectrum"


class DerivativeUnavailable(InputError):
    """Hellmann-Feynman coupling requested without a usable dh/dtau."""

    module = "spectrum"


class OutsideTabulatedRange(InputError):
    """A tabulated model was evaluated outside its sampled times."""

    module = "model"


class NonFiniteStep(NumericalError):
    """A step generator is not finite, so its exponential is undefined."""

    module = "propagate"


class NonFiniteReport(NumericalError):
    """A report would hold a NaN or an infinity, which JSON cannot encode."""

    module = "cli"


class GridMismatch(InputError):
    """Two sampled quantities do not live on the same time grid."""


class PhaseUnresolved(NumericalError):
    """The coupling phase moves pi/2 or more per step: too fast to unwrap."""

    module = "frame"


class RatioBreakdown(NumericalError):
    """Coefficient-ratio methods are invalid: |c_m| dips below 0.1."""

    module = "perturb"


class PeriodMismatch(InputError):
    """The stated period is not an integer number of grid steps."""

    module = "fourier"


class HarmonicsOutOfRange(InputError):
    """More harmonics requested than one sampled period resolves."""

    module = "fourier"


class PhaseNotLinear(NumericalError):
    """The coupling phase is not linear in time; the Fourier bound
    does not apply."""

    module = "fourier"


class ConfigError(InputError):
    """Bad scenario configuration (CLI exit 2)."""

    module = "cli"
