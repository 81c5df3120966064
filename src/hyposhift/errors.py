"""Exception hierarchy shared by all hyposhift modules."""


class HyposhiftError(Exception):
    """Base class for every error raised by this package."""


# shift models
class SingularResolvent(HyposhiftError):
    pass


class InvalidDimension(HyposhiftError):
    pass


class NoLimitDeclared(HyposhiftError):
    pass


# Mobius maps
class PoleHit(HyposhiftError):
    pass


class NotAContraction(HyposhiftError):
    pass


# determinants
class SpectrumHit(HyposhiftError):
    pass


class NotRankOne(HyposhiftError):
    pass


# principal function
class TooCloseToCurve(HyposhiftError):
    pass


class OnEssentialSpectrum(HyposhiftError):
    pass


class EvaluationInsideDisc(HyposhiftError):
    pass


# trace formulas
class DimensionTooSmall(HyposhiftError):
    pass


class DomainError(HyposhiftError):
    pass


# CLI
class ConfigError(HyposhiftError):
    """Invalid experiment configuration; message carries a field path."""


class IoError(HyposhiftError):
    pass
