"""Exception hierarchy used across the reproduction."""


class ReproError(Exception):
    """Base class for all library-specific exceptions."""


class ConfigError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class SimulationError(ReproError):
    """Raised when the simulator reaches an impossible state.

    Any occurrence of this exception indicates a bug in the model (for
    example, freeing an MSHR entry twice), never a property of the workload.
    """


class LivelockError(SimulationError):
    """Raised by the liveness watchdog when a run stops making progress.

    ``report`` is the structured :class:`repro.sim.liveness.StallReport`
    snapshot taken at the moment the watchdog fired (``None`` only when the
    error is constructed without one); the rendered report is also embedded
    in the message so any layer that merely stringifies the failure -- sweep
    failure records, CI logs -- still shows the component-level stall state.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class ConservationError(SimulationError):
    """Raised when a run breaks one of the engine's conservation laws.

    ``law`` names the broken law (for example ``"core-cycles"``), ``lhs`` and
    ``rhs`` are the two sides that should have been equal.
    """

    def __init__(self, law: str, detail: str, lhs: int, rhs: int) -> None:
        super().__init__(f"conservation law {law!r} broken: {detail} ({lhs} != {rhs})")
        self.law = law
        self.lhs = lhs
        self.rhs = rhs


class TraceError(ReproError):
    """Raised when a memory trace is malformed or inconsistent."""
