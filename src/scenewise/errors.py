"""Exception taxonomy shared across the package.

``DataError`` subclasses signal problems with user-supplied data and map to
CLI exit code 1; everything else is a programming-contract violation.
"""


class ScenewiseError(Exception):
    """Base class for all package-specific errors."""


class DataError(ScenewiseError):
    """Bad or missing input data (CLI exit code 1)."""


# parser
class EmptyScript(DataError):
    """Script contains no non-blank line."""


# autodiff
class ShapeMismatch(ScenewiseError):
    """Operands have incompatible shapes (both shapes in the message)."""


class EmptySequence(ScenewiseError):
    """A sequence encoder received zero inputs."""


# encoders
class EmptyStatement(ScenewiseError):
    """A statement had no tokens after vocabulary mapping."""


# classifier
class NoPositives(DataError):
    """Average precision is undefined without a positive label."""


class DataEmpty(DataError):
    """Training requested on an empty sample set."""


class NonFiniteLoss(ScenewiseError):
    """Loss became NaN/inf; message carries epoch and sample context."""


class MissingLogline(DataError):
    """A script has no logline for the loglines baseline."""


# descriptors
class ScriptTooSmall(ScenewiseError):
    """A script has too few scenes to draw negative samples from."""


class InsufficientVocab(DataError):
    """Fewer descriptor-vocabulary tokens than requested clusters."""


class ZeroDocFrequency(ScenewiseError):
    """A cluster word never occurs in the co-occurrence corpus."""


# evaluation
class UnknownTag(ScenewiseError):
    """Tag not present in the tag-embedding space."""


class InvalidDistribution(ScenewiseError):
    """Probabilities are negative or do not sum to one."""


class DomainError(ScenewiseError):
    """Argument outside the operation's domain."""


# trajectories
class UnknownFormat(ScenewiseError):
    """Unsupported export format."""


class DescriptorOutOfRange(DataError, ValueError):
    """A descriptor selection names more descriptors, or an index beyond
    those, that the model has."""


# corpus / CLI
class EmbeddingDimMismatch(DataError):
    """Embedding file dimensionality differs from the expected dimension."""


class NonFiniteEmbedding(DataError):
    """An embedding file holds a NaN or infinite value."""


class VocabularyMismatch(DataError):
    """Checkpoint vocabulary hash differs from the corpus vocabulary."""


class ParameterMismatch(DataError):
    """Checkpoint parameter names or shapes differ from the model's."""


class CheckpointCorrupt(DataError, ValueError):
    """Checkpoint lacks the magic bytes, its header or payload is
    truncated, unreadable or too long, or a parameter holds a NaN or an
    infinite value."""
