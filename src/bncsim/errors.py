"""Exception types shared across the simulator."""


class InconsistentWord(Exception):
    """A comparator word that cannot occur under the signal model.

    Raised by the event classifiers instead of silently mapping an
    impossible bit pattern to some event; it always indicates a modeling
    bug upstream, never a physical outcome.
    """


class NonPhysical(ValueError):
    """A link-budget quantity that would require optical gain."""


class UndefinedQuantity(ValueError):
    """A ratio whose denominator is zero."""


class ConfigError(ValueError):
    """Malformed configuration file or invalid option combination."""


class MissingFluxPoint(KeyError):
    """A landmark check needs a flux point absent from the report."""
