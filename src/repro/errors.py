"""Run-time errors of the embedded language (import-cycle-free home)."""

from __future__ import annotations


class SchemeError(Exception):
    """``errorRT``: misuse of a language construct (wrong arity, applying a
    non-function, a primitive outside its domain, ``(error ...)``, ...)."""

    def __init__(self, message: str, loc=None):
        self.loc = loc
        where = f" at {loc}" if loc is not None else ""
        super().__init__(f"{message}{where}")
        self.message = message


class BlameError(SchemeError):
    """A contract violation in the embedded language, blaming a party
    (Findler–Felleisen, §2.3).  Raised by the ``blame-error`` primitive,
    which the object-language contract library (:mod:`repro.lang.
    contracts_lib`) calls when a projection rejects a value."""

    def __init__(self, party, contract_name, value_text: str, loc=None):
        self.party = party
        self.contract_name = contract_name
        self.value_text = value_text
        super().__init__(
            f"{party} broke the contract {contract_name} on {value_text}",
            loc,
        )


class FuelExhausted(Exception):
    """The step budget ran dry (``run_program(..., fuel=N)`` / ``sized run
    --fuel N``); the answer is ``Answer.TIMEOUT``.  Under the *standard*
    semantics this is how tests observe divergence; under monitoring it
    should never fire for diverging programs (Corollary 3.3)."""

    def __init__(self, steps: int):
        super().__init__(f"fuel exhausted after {steps} steps")
        self.steps = steps
        # the *configured* budget, verbatim — callers (serve budgets,
        # the CLI) rely on this being the real limit, 0 included
        self.limit = steps


#: The old name of the budget error: ``fuel`` is the only budget.
MachineTimeout = FuelExhausted
