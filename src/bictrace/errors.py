"""Exception taxonomy shared across the toolkit."""


class BictraceError(Exception):
    """Base class for all toolkit errors."""


class NotARepositoryError(BictraceError):
    """The given path does not contain a readable repository."""


class CorruptRepositoryError(BictraceError):
    """The repository object store is damaged."""


class UnknownCommitError(BictraceError):
    """A commit id does not resolve to any commit."""


class AmbiguousCommitError(BictraceError):
    """An abbreviated commit id resolves to more than one object."""


class NotAParentError(BictraceError):
    """The commit given as diff base is not a parent of the child commit."""


class PathMissingError(BictraceError):
    """A file path does not exist at the queried revision."""


class LineOutOfRangeError(BictraceError):
    """A requested line number exceeds the file length at the revision."""


class GitTimeoutError(BictraceError):
    """A git process ran longer than the time it is allowed."""


class RootCommitError(BictraceError):
    """The operation needs a parent commit and the commit has none."""


class ConfigurationError(BictraceError):
    """A pipeline was configured inconsistently (e.g. a filter lacks its input)."""


class SchemaError(BictraceError):
    """A data file violates its documented schema."""
