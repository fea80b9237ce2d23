"""Exception types shared across the toolkit, and the record of one finding."""

from typing import NamedTuple


class ApprepoError(Exception):
    """Base class for all toolkit errors."""


class MalformedClassFile(ApprepoError):
    """A class file could not be decoded.

    Carries what went wrong (``reason``), the byte offset of the first
    failure and, when known, the container and entry the bytes came from.
    """

    def __init__(self, message: str, offset: int = 0, source: str | None = None):
        self.reason = message
        self.offset = offset
        self.source = source
        where = f" at offset {offset}"
        if source:
            where += f" in {source}"
        super().__init__(message + where)


class MalformedDescriptor(ApprepoError):
    """A field or method descriptor violates the descriptor grammar."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


class MethodNotFound(ApprepoError):
    """A method reference does not name a method of the class."""


class ContainerUnreadable(ApprepoError):
    """A class container (directory or archive) cannot be read."""


class TargetClassMissing(ApprepoError):
    """A call site names a class that the hierarchy has never seen."""


class EntryPointMissing(ApprepoError):
    """A requested entry point cannot be resolved in the hierarchy."""


class ReportItem(NamedTuple):
    """One finding of a validation check.

    ``paths`` are the index paths of the GUI elements it names, if any.
    """

    level: str  # violation | warning
    code: str
    detail: str
    paths: tuple[str, ...] = ()


class SchemaViolation(ApprepoError):
    """A persisted document violates its schema or model invariants.

    ``violations`` holds the :class:`ReportItem` findings when the check
    produced a structured report (GUI model and project validation do).
    """

    def __init__(self, message: str, violations: list | None = None):
        self.violations = violations or []
        super().__init__(message)


class TransformFailure(ApprepoError):
    """An external GUI document could not be transformed.

    ``node_path`` points at the offending node of the external document.
    """

    def __init__(self, message: str, node_path: str = "/"):
        self.node_path = node_path
        super().__init__(f"{message} (at {node_path})")


class MissingArtifact(ApprepoError):
    """A project declares an artifact path that does not exist."""

    def __init__(self, artifact: str, path):
        self.artifact = artifact
        self.path = path
        super().__init__(f"missing artifact {artifact!r}: {path}")


class IoFailure(ApprepoError):
    """An I/O operation failed."""


class AlreadyExists(ApprepoError):
    """A project file already exists with different content."""


class UnsortedInput(ApprepoError):
    """Version rows were not sorted by timestamp."""
