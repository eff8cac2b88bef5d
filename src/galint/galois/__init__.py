"""Resonance structure of the diagonal Galois data.

Exact resonance tests and relation lattices for hyperexponential
log-derivative bases, and the bounded-horizon Diophantine evaluator.
"""

from .resonance import (
    NonResonant,
    Resonant,
    ResonanceReport,
    relation_lattice,
    resonance_test,
)
from .diophantine import (
    DiophantineReport,
    angles_from_places,
    diophantine_eval,
)

__all__ = [
    "Resonant",
    "NonResonant",
    "ResonanceReport",
    "resonance_test",
    "relation_lattice",
    "DiophantineReport",
    "angles_from_places",
    "diophantine_eval",
]
