"""Decoy-state BB84 simulator and side-channel analysis toolkit.

Layers, bottom up:

* :mod:`qkdbench.config`      -- domain types, config file schema, validation
* :mod:`qkdbench.entropy`     -- binary entropy and plug-in mutual information
* :mod:`qkdbench.decoy`       -- analytic gains/QBER, single-photon bounds, key rate
* :mod:`qkdbench.montecarlo`  -- per-pulse stochastic channel simulation
* :mod:`qkdbench.timetag`     -- binary timetag codec, gating, sifting
* :mod:`qkdbench.sidechannel` -- distinguishability leakage and rate debit
* :mod:`qkdbench.cli`         -- `qkdbench` command-line tool
"""

from .config import (
    ConfigError,
    LinkConfig,
    ProtocolConfig,
    SourceConfig,
    build_configs,
    dump_config,
    load_config,
    validate,
)
from .decoy import (
    ChannelObservables,
    DecoyEstimates,
    GridSpec,
    KeyRateReport,
    OptimizeResult,
    channel_observables,
    decoy_estimates,
    estimate_background_yield,
    evaluate_link,
    gain,
    key_rate_lower_bound,
    link_eta,
    optimize_intensities,
    qber,
    rate_from_counts,
    sweep,
    transmittance,
)
from .entropy import JointDistribution, h2, mi_from_profiles, mutual_information
from .montecarlo import RunResult, RunSummary, run
from .sidechannel import LeakageBudget, PulseProfile, leakage, leakage_adjusted_rate, load_profiles, synth_profiles
from .timetag import AliceLog, TimeTagStream, decode, encode, gate, recover_phase, sift

__version__ = "0.1.0"
