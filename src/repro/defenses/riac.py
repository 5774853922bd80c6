"""PRAC-RIAC: Randomly Initialized Activation Counters (Section 11.2).

Identical to PRAC except every counter is initialized with a uniformly
random value in ``[0, N_BO)`` at boot (lazily, on first touch) *and*
re-randomized after each preventive reset.  Counters therefore reach
the back-off threshold after an attacker-unpredictable number of
activations, injecting noise that reduces LeakyHammer's channel
capacity at a much lower cost than FR-RFM at very low ``N_RH``.
"""

from __future__ import annotations

from repro.sim.config import DefenseKind

from repro.defenses.prac import PracDefense


class PracRiacDefense(PracDefense):
    """PRAC with randomized counter initialization."""

    kind = DefenseKind.PRAC_RIAC

    def _initial_count(self) -> int:
        return self.rng.randrange(self.params.nbo)

    def describe(self) -> dict:
        info = super().describe()
        info["kind"] = self.kind.value
        info["counter_init"] = f"uniform[0, {self.params.nbo})"
        return info
