"""Domain exceptions shared by the trust engine, simulator and CLI."""


class TrustMarketError(Exception):
    """Base class for every error this package raises on purpose."""


class IncompleteCredentials(TrustMarketError):
    """Credential set does not even cover a complete personal-details block."""


class DuplicateIdentity(TrustMarketError):
    """A normalized national-id or bank/card value is already registered."""


class UnknownAccount(TrustMarketError):
    """Referenced account id is not present in the registry."""


class SelfRating(TrustMarketError):
    """An account tried to rate itself."""


class StaleTimestamp(TrustMarketError):
    """Rating is not newer than the stored rating for the same key."""


class SelfQuery(TrustMarketError):
    """A buyer asked for a trust opinion about itself."""


class InvalidScenario(TrustMarketError):
    """Simulation scenario failed validation."""


class EmptyGroup(TrustMarketError):
    pass


class TooFewSamples(TrustMarketError):
    pass


class GroupTooSmall(TrustMarketError):
    pass


class TooFewGroups(TrustMarketError):
    pass


class CorruptLog(TrustMarketError):
    """Event log is structurally damaged at a specific line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
