"""Collaborative multi-hop broadcast: geometry, signal models, schedules,
simulation drivers, and a certified-inequality prover."""

from .bounds import (
    SchedulePrediction,
    mimo_lower_radius,
    mimo_schedule_closed_form,
    mimo_upper_schedule,
    miso_upper_schedule,
    propagation_time,
    reverse_snr_schedule,
    snr_lower_radius,
    snr_upper_schedule,
)
from .broadcast import (
    BootstrapFailure,
    BroadcastConfig,
    RoundLog,
    RoundRecord,
    run_expanding_disk,
    run_flood,
    run_miso_broadcast,
    run_udg_flood,
    sector_route,
)
from .experiments import (
    DEFAULT_C1,
    ExperimentConfig,
    ExperimentResult,
    ScalingFit,
    calibrate_c1,
    emit_fieldmaps,
    fit_scaling,
    run_experiment,
)
from .geometry import (
    EllipseParams,
    delta_d,
    f_double_prime,
    f_limit_inf,
    f_prime,
    intersection_area_f,
    segment_area,
    segment_g,
    t_terms,
)
from .intervals import DomainError, Interval
from .nodefield import NodeField, sample_field, sector_occupancy
from .prover import (
    Box,
    ProofResult,
    ProofTask,
    inequality_suite,
    interval_eval,
    prove,
)
from .signal_model import (
    FieldMap,
    GridSpec,
    SenderSet,
    SignalParams,
    center_sync_phases,
    demodulate_numeric,
    expected_phasor_integral,
    field_map,
    mimo_triggered,
    received_phasor,
    snr_received_energy,
    snr_triggered,
    udg_triggered,
)

__version__ = "0.1.0"
