"""Exception types shared across the package."""


class RagradeError(Exception):
    """Base class for all package errors."""


# --- corpus loading / validation ---

class CorpusError(RagradeError):
    pass


class MissingField(CorpusError):
    def __init__(self, row, field):
        super().__init__(f"row {row}: missing field {field!r}")
        self.row = row
        self.field = field


class ScoreOutOfRange(CorpusError):
    def __init__(self, row, score):
        super().__init__(f"row {row}: score {score!r} outside [0, 1]")
        self.row = row
        self.score = score


class UnknownLabel(CorpusError):
    def __init__(self, row, label):
        super().__init__(f"row {row}: unknown label {label!r}")
        self.row = row
        self.label = label


class SplitViolation(CorpusError):
    def __init__(self, question_id, detail):
        super().__init__(f"question {question_id!r}: {detail}")
        self.question_id = question_id


# --- embedding backends ---

class BackendUnavailable(RagradeError):
    pass


class DimensionMismatch(RagradeError):
    pass


class InvalidEmbedding(RagradeError):
    pass


# --- retrieval ---

class EmptyMatrix(RagradeError):
    pass


class EmptyIndex(RagradeError):
    pass


class FingerprintMismatch(RagradeError):
    pass


# --- vote grading ---

class EmptyNeighborSet(RagradeError):
    pass


# --- prompt compilation ---

class DuplicateField(RagradeError):
    pass


class EmptySignature(RagradeError):
    pass


class MissingInput(RagradeError):
    def __init__(self, field):
        super().__init__(f"missing input field {field!r}")
        self.field = field


class DemoSchemaMismatch(RagradeError):
    pass


# --- model client / typed-output parsing ---

class TransportError(RagradeError):
    pass


class Timeout(TransportError):
    pass


class RateLimited(TransportError):
    pass


class Stopped(RagradeError):
    """A request's stop predicate held when it was granted its slot, so it was
    not sent; neither a transport nor a parse failure, so nothing re-asks."""


class ParseError(RagradeError):
    """Typed-output parsing failed; triggers the fallback predictor."""


class NoJsonFound(ParseError):
    pass


class MissingOutputField(ParseError):
    def __init__(self, field):
        super().__init__(f"missing output field {field!r}")
        self.field = field


class TypeMismatch(ParseError):
    pass


class ScoreValueOutOfRange(ParseError):
    def __init__(self, value):
        super().__init__(f"score {value!r} outside [0, 1]")
        self.value = value


class FallbackParseFailed(RagradeError):
    pass


# --- pipelines ---

class GoldLeakage(RagradeError):
    """Live item's gold fields reached a prompt; must be impossible."""


class BudgetExhaustedWithoutValidCandidate(RagradeError):
    pass


# --- metrics / reporting ---

class LengthMismatch(RagradeError):
    pass


class EmptyEvaluationSet(RagradeError):
    pass


class AllEmptyReferences(RagradeError):
    pass


class SchemaMismatch(RagradeError):
    pass
