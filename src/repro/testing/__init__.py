"""Importable verification harnesses (shared by tests and the fuzzer).

The lockstep differential harness started life as test-support code
under ``tests/``; the fuzzing subsystem (:mod:`repro.fuzz`) turned it
into a library: its oracles run the same harness over generated
scenarios, so the machinery lives here where both can import it.
"""

from repro.testing.differential import (
    DifferentialMismatch,
    LockstepOutcome,
    canonical_report,
    canonical_state,
    random_config,
    run_lockstep,
    state_digest,
)

__all__ = [
    "DifferentialMismatch",
    "LockstepOutcome",
    "canonical_report",
    "canonical_state",
    "random_config",
    "run_lockstep",
    "state_digest",
]
