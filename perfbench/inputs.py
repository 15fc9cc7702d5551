"""Seeded inputs for the four workloads.

Everything random in a run is drawn here from the command's ``--seed``;
``epdyn`` only ever receives the generated values. This module uses the
standard library alone, so the orchestrating process can write configs
without importing the package under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("selectivity", "adiabatic", "trajectory", "sweep")

#: Superpositions per direction in the selectivity workload.
N_SUPERPOSITIONS = 8
#: Initial states per direction in the adiabatic workload. The adaptive
#: stepper's work varies with the state (RHS calls per traversal from 3.6k
#: to 8.1k over 64 states, mean 4.4k), so a run averages over several. Every
#: pass of a run uses the same states, so the measured work depends on the
#: seed alone, not on how many passes fit in the run.
N_ADIABATIC_STATES = 6

#: The README's diode configuration (bundled DEFAULT_PARAMS and diode_loop).
DIODE_SYSTEM = {"e1": 0.0, "e2": 1.0, "gamma1": 0.1, "gamma2": 0.3, "d12_re": 1.0, "d12_im": 0.0}
DIODE_LOOP = {
    "center_omega": 0.92005,
    "center_eps0": 0.64976,
    "semi_axis_omega": 2.02446,
    "semi_axis_eps": 0.64973,
    "direction": "cw",
    "duration_T": 348.75,
    "start_phase": 4.35017,
}
#: The acceptance suite's tolerances (ACCEPT in the tests).
ACCEPT_TOLS = {"rel_tol": 1e-10, "abs_tol": 1e-14, "max_step": 10.0, "initial_step": 0.01}


@dataclass(frozen=True)
class Inputs:
    """All seeded values of one run; amplitudes are (re, im) pairs per component."""

    seed: int
    superpositions: tuple[tuple[complex, complex], ...]
    trajectory_initial: tuple[complex, complex]
    sweep_phase: float
    adiabatic_states: tuple[tuple[complex, complex], ...]


def _gaussian_state(rng: random.Random) -> tuple[complex, complex]:
    # complex Gaussian amplitudes, as in the acceptance suite's random_superpositions
    z = [rng.gauss(0.0, 1.0) for _ in range(4)]
    return complex(z[0], z[1]), complex(z[2], z[3])


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    return Inputs(
        seed=seed,
        superpositions=tuple(_gaussian_state(rng) for _ in range(N_SUPERPOSITIONS)),
        trajectory_initial=_gaussian_state(rng),
        sweep_phase=rng.uniform(0.0, 2.0 * math.pi),
        adiabatic_states=tuple(_gaussian_state(rng) for _ in range(N_ADIABATIC_STATES)),
    )


def initial_section(state: tuple[complex, complex]) -> dict:
    c1, c2 = state
    return {"c1_re": c1.real, "c1_im": c1.imag, "c2_re": c2.real, "c2_im": c2.imag}


def config_doc(inputs: Inputs, workload: str) -> dict:
    """JSON run configuration for ``workload`` (the CLI workloads read it; the
    library workloads only use it for the set-up probe)."""
    doc = {"system": dict(DIODE_SYSTEM), "loop": dict(DIODE_LOOP), "integrator": dict(ACCEPT_TOLS)}
    if workload == "trajectory":
        doc["initial"] = initial_section(inputs.trajectory_initial)
    elif workload == "adiabatic":
        doc["initial"] = initial_section(inputs.adiabatic_states[0])
    elif workload == "selectivity":
        doc["initial"] = initial_section(inputs.superpositions[0])
    return doc
