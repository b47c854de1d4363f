"""The MINDFUL analytical framework (paper Sections 3-6).

Entry points:

* :mod:`repro.core.socs` — Table 1 database.
* :mod:`repro.core.scaling` — Eq. 1-5 scaling to/beyond 1024 channels.
* :mod:`repro.core.comm_centric` — naive / high-margin OOK designs.
* :mod:`repro.core.qam_design` — advanced-modulation minimum efficiency.
* :mod:`repro.core.comp_centric` — on-implant DNN integration.
* :mod:`repro.core.partitioning` — implant/wearable layer reduction.
* :mod:`repro.core.optimizations` — the ChDr/La/Tech/Dense ladder.
"""

from repro.core.socs import (
    DEFAULT_SAMPLE_BITS,
    STANDARD_CHANNELS,
    TABLE1,
    NIType,
    ScalingRule,
    SoCRecord,
    soc_by_number,
    wireless_socs,
)
from repro.core.scaling import ScaledSoC, scale_to_standard
from repro.core.comm_centric import (
    CommCentricPoint,
    DesignHypothesis,
    budget_crossing_channels,
    evaluate_comm_centric,
)
from repro.core.qam_design import (
    QamDesignPoint,
    bits_per_symbol_for,
    evaluate_qam_design,
    max_channels_at_efficiency,
)
from repro.core.comp_centric import (
    CompCentricPoint,
    Workload,
    build_workload,
    evaluate_comp_centric,
    max_feasible_channels,
)
from repro.core.partitioning import (
    admissible_splits,
    PartitionedPoint,
    PartitioningGain,
    evaluate_partitioned,
    max_feasible_channels_partitioned,
    partitioning_gain,
)
from repro.core.event_stream import (
    EventStreamConfig,
    EventStreamPoint,
    evaluate_event_stream,
    max_channels_event_stream,
)
from repro.core.closed_loop import (
    BRAIN_REACTION_TIME_S,
    ClosedLoopPoint,
    StimulationConfig,
    evaluate_closed_loop,
)
from repro.core.multi_implant import (
    MultiImplantSystem,
    channels_vs_single_implant,
    max_implants,
)
from repro.core.roadmap import ChannelRoadmap
from repro.core.sensitivity import (
    SensitivityResult,
    sweep_record_parameter,
    tornado,
)
from repro.core.explorer import (
    ExplorationReport,
    StrategyOutcome,
    explore,
)
from repro.core.optimizations import (
    LADDER,
    OptimizationConfig,
    OptimizedDesign,
    evaluate_ladder,
    evaluate_ladder_step,
    max_active_channels,
)

__all__ = [
    "DEFAULT_SAMPLE_BITS",
    "STANDARD_CHANNELS",
    "TABLE1",
    "NIType",
    "ScalingRule",
    "SoCRecord",
    "soc_by_number",
    "wireless_socs",
    "ScaledSoC",
    "scale_to_standard",
    "CommCentricPoint",
    "DesignHypothesis",
    "budget_crossing_channels",
    "evaluate_comm_centric",
    "QamDesignPoint",
    "bits_per_symbol_for",
    "evaluate_qam_design",
    "max_channels_at_efficiency",
    "CompCentricPoint",
    "Workload",
    "build_workload",
    "evaluate_comp_centric",
    "max_feasible_channels",
    "PartitionedPoint",
    "admissible_splits",
    "PartitioningGain",
    "evaluate_partitioned",
    "max_feasible_channels_partitioned",
    "partitioning_gain",
    "EventStreamConfig",
    "EventStreamPoint",
    "evaluate_event_stream",
    "max_channels_event_stream",
    "BRAIN_REACTION_TIME_S",
    "ClosedLoopPoint",
    "StimulationConfig",
    "evaluate_closed_loop",
    "ExplorationReport",
    "StrategyOutcome",
    "explore",
    "ChannelRoadmap",
    "SensitivityResult",
    "sweep_record_parameter",
    "tornado",
    "MultiImplantSystem",
    "channels_vs_single_implant",
    "max_implants",
    "LADDER",
    "OptimizationConfig",
    "OptimizedDesign",
    "evaluate_ladder",
    "evaluate_ladder_step",
    "max_active_channels",
]
