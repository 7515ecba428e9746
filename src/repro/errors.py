"""Host-level exception hierarchy for the simulator.

Two distinct failure planes exist in this code base and must not be
confused:

* **Simulated faults** (access violations, missing segments, upward-call
  traps, ...) are events *inside* the simulated machine.  They are modelled
  by :class:`repro.cpu.faults.Fault`, are normally fielded by the simulated
  supervisor, and are part of correct operation.

* **Host errors** (this module) indicate misuse of the simulator's Python
  API or internal inconsistencies: malformed field values, assembling bad
  source, configuring an impossible machine.  They are ordinary Python
  exceptions and should never be raised by a correctly-written client
  program driving a correctly-configured machine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every host-level error raised by this package."""


class FieldRangeError(ReproError, ValueError):
    """A value does not fit in the hardware field it was assigned to."""

    def __init__(self, field: str, value: int, width: int):
        self.field = field
        self.value = value
        self.width = width
        super().__init__(
            f"value {value!r} does not fit in {width}-bit field {field!r}"
        )


class SegmentBoundsError(ReproError, IndexError):
    """A host-side access to a segment image fell outside its bound."""


class ConfigurationError(ReproError):
    """A machine, SDW, or subsystem was configured inconsistently."""


class BracketOrderError(ConfigurationError):
    """Ring brackets violate the mandatory R1 <= R2 <= R3 ordering."""


class AssemblyError(ReproError):
    """Raised by the assembler for malformed source programs."""

    def __init__(self, message: str, line: int = 0, source: str = ""):
        self.line = line
        self.source = source
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class LinkError(ReproError):
    """The loader could not resolve an inter-segment reference."""


class FileSystemError(ReproError):
    """Host-level misuse of the simulated file system API."""


class AccessDenied(ReproError):
    """A simulated-supervisor service refused an operation.

    Unlike a hardware access violation this is a *policy* refusal made by
    supervisor software (e.g. an ACL did not match, or the sole-occupant
    rule forbade a bracket setting).
    """


class MachineHalted(ReproError):
    """The simulated processor executed HALT (normal program termination)."""

    def __init__(self, message: str = "machine halted", cycles: int = 0):
        self.cycles = cycles
        super().__init__(message)


class SnapshotError(ReproError):
    """A machine snapshot is unreadable, tampered, or version-skewed."""


class JournalError(ReproError):
    """A gate-call journal is structurally corrupt.

    Raised for damage that cannot be explained as a torn tail write:
    a bad magic header, a CRC mismatch with committed records after it,
    or a non-consecutive sequence number.
    """


class ReplayDivergenceError(ReproError):
    """Replaying a journal did not reproduce the journaled outcomes.

    The machine is deterministic, so a divergence means either the
    journal or the snapshot it extends was corrupted in a way that
    passed the structural checks — the replay cross-check is the last
    line of defence.
    """

    def __init__(self, seq: int, field: str, expected, actual):
        self.seq = seq
        self.field = field
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"replay diverged at journal record {seq}: {field} "
            f"expected {expected!r}, got {actual!r}"
        )
