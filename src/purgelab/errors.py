"""Exception types shared across the package."""


class PurgelabError(Exception):
    """Base class for all purgelab errors."""


class DimensionError(PurgelabError):
    """Vector or matrix dimensions do not match the expected shape."""


class DegenerateVectorError(PurgelabError):
    """An all-zero vector where a direction is required."""


class NumericError(PurgelabError):
    """Non-finite value encountered in numeric input or output."""


class EmptyBatchError(PurgelabError):
    """An operation that needs at least one sample received none."""


class RangeError(PurgelabError):
    """A distance fell outside the [0, 1] codomain."""


class NormalizationError(PurgelabError):
    """An embedding that must be unit-norm is not."""


class DeserializeError(PurgelabError):
    """Malformed bytes in a checkpoint or table file."""


class VersionError(PurgelabError):
    """Serialized data written by an incompatible format version."""


class StateError(PurgelabError):
    """A cached forward state no longer matches the current parameters."""


class ParseError(PurgelabError):
    """A corpus line that does not follow the record format."""


class SchemaError(PurgelabError):
    """Corpus-level invariant violation, e.g. conflicting origins in a class."""


class StratifyError(PurgelabError):
    """A label with no records where stratification needs both."""


class EmptyCorpusError(PurgelabError):
    """An operation that needs a nonempty corpus received an empty one."""


class DegenerateInputError(PurgelabError):
    """Text input that yields no usable features."""


class ConfigError(PurgelabError):
    """Invalid configuration value."""


class DivergenceError(PurgelabError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch=None, step=None, history=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.history = history


class UnknownClassError(PurgelabError, LookupError):
    """A class id that does not occur in the corpus."""
