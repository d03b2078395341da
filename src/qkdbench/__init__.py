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

from .config import LinkConfig, ProtocolConfig, SourceConfig

__version__ = "0.1.0"
