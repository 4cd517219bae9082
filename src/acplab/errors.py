"""Exception types shared across the workbench."""


class AlgebraError(Exception):
    """Base class for all workbench errors."""


class PresentationError(AlgebraError):
    """Malformed or inconsistent field/algebra presentation data."""


class MixedContextError(AlgebraError):
    """Operands belong to different fields, rings or algebras."""


class WitnessError(AlgebraError):
    """A supplied witness or isomorphism fails its defining identity."""


class FormatError(AlgebraError):
    """Unreadable or schema-incompatible serialized data."""
