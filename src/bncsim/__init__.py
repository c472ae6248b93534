"""Monte Carlo study of detector blinding on noise-cancelling QKD receivers.

The package simulates a phase-encoded two-way QKD link whose receiver
uses background-noise-cancelling single-photon detectors (balanced twin
APDs or a self-differencing APD), an intercept-and-resend attack that
exploits the cancellation to blind the receiver, and the comparator-based
monitor circuits that expose the attempt.  Closed-form oracles validate
the Monte Carlo output.
"""

__version__ = "0.1.0"

from .analytics import (
    ClickProbabilities,
    LinkBudget,
    attack_qber,
    click_probabilities,
    ideal_click_rate_diff_phase,
    ideal_click_rate_same_phase,
)
from .attack import (
    AttackCaseRow,
    AttackConfig,
    CaseLabel,
    DetectorKind,
    ExpectedOutcome,
    GateTally,
    Scenario,
    enumerate_cases,
    run_attack,
    run_fixed,
)
from .balanced import GateEvent
from .errors import (
    ConfigError,
    InconsistentWord,
    MissingFluxPoint,
    NonPhysical,
    UndefinedQuantity,
)
from .harness import (
    DEFAULT_FLUX_GRID,
    LANDMARK_FLUX_GRID,
    ReportRow,
    RunReport,
    SweepSpec,
    emit_report,
    load_report_rows,
    run_sweep,
    verify_landmarks,
)
from .selfdiff import SdGateEvent
from .signal_model import DetectorParams, PhaseSymbol
