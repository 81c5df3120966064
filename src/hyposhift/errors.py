"""Exception hierarchy shared by all hyposhift modules."""


class HyposhiftError(Exception):
    """Base class for every error raised by this package."""


# shift models
class InvalidDimension(HyposhiftError):
    pass


# Mobius maps
class PoleHit(HyposhiftError):
    pass


class NotAContraction(HyposhiftError):
    pass


# resolvents, determinants and disc integrals: an evaluation point not outside
# the disc where the formula holds
class SpectrumHit(HyposhiftError):
    pass


class NotRankOne(HyposhiftError):
    pass


# principal function
class TooCloseToCurve(HyposhiftError):
    pass


# checks: an input outside a claim's domain, or a value that is not finite
class DomainError(HyposhiftError):
    pass


# CLI
class ConfigError(HyposhiftError):
    """Invalid experiment configuration; message carries a field path."""


class IoError(HyposhiftError):
    pass
