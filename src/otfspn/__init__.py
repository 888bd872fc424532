"""Link-level OTFS simulation with oscillator phase noise.

Modem transforms and QAM live in :mod:`otfspn.grid`; oscillator models in
:mod:`otfspn.oscillator`; the delay-Doppler interference/SINR analysis in
:mod:`otfspn.dd_analysis`; doubly dispersive channels in
:mod:`otfspn.channel`; the two-stage Wiener estimator and its baselines in
:mod:`otfspn.estimation`; equalizers, coding and metrics in
:mod:`otfspn.equalization`; scenario configuration, Monte Carlo execution
and the figure presets in :mod:`otfspn.harness`.

scipy is imported inside the functions that call it, so ``import otfspn``,
the CLI and ``kind: sinr`` runs load numpy alone.
"""

from .grid import GridConfig, QamConfig
from .oscillator import PhaseNoiseModel
from .channel import ChannelProfile

__all__ = [
    "GridConfig", "QamConfig",
    "PhaseNoiseModel", "ChannelProfile",
]

__version__ = "0.1.0"
