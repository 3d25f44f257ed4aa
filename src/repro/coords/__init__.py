"""Network coordinate systems.

* :mod:`repro.coords.base` — the :class:`DelayPredictor` interface all
  coordinate systems implement.
* :mod:`repro.coords.vivaldi` — the Vivaldi spring-relaxation embedding
  (Dabek et al., SIGCOMM 2004), the system the paper studies in §3.2.1.
* :mod:`repro.coords.simulation` — a round-based simulation driver that
  records error traces, oscillation ranges and movement speeds (Figs. 10–11).
* :mod:`repro.coords.ides` — IDES matrix-factorisation coordinates
  (Mao & Saul, IMC 2004), the first §4.2 strawman.
* :mod:`repro.coords.lat` — Vivaldi plus the localized adjustment term of
  Lee et al. (SIGMETRICS 2006), the second §4.2 strawman.
* :mod:`repro.coords.online` — the per-observation (streaming) Vivaldi
  with height, error and rho gravity ("Network Coordinates in the Wild",
  Ledlie et al.), underlying :mod:`repro.stream`.
"""

from repro.coords.base import DelayPredictor, MatrixPredictor
from repro.coords.ides import IDESConfig, IDESCoordinates, fit_ides
from repro.coords.lat import LATCoordinates, fit_lat
from repro.coords.online import OnlineVivaldi, OnlineVivaldiConfig
from repro.coords.simulation import EmbeddingTrace, VivaldiSimulation
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem, embed_vivaldi

__all__ = [
    "OnlineVivaldi",
    "OnlineVivaldiConfig",
    "DelayPredictor",
    "MatrixPredictor",
    "VivaldiConfig",
    "VivaldiSystem",
    "embed_vivaldi",
    "EmbeddingTrace",
    "VivaldiSimulation",
    "IDESConfig",
    "IDESCoordinates",
    "fit_ides",
    "LATCoordinates",
    "fit_lat",
]
