"""Exception types shared across the package."""


class NnsigError(Exception):
    """Base class for all nnsig errors."""


class ParameterError(NnsigError):
    """Rejected scheme parameter (composite modulus, bad sizes, bad ranges)."""


class DimensionMismatch(NnsigError):
    """Operands have incompatible shapes."""


class SingularMatrixError(NnsigError):
    """Matrix has no inverse mod p."""


class SingularWeightsError(ParameterError):
    """Binarized weight matrix is singular mod p; caller must resample."""


class InvalidStateError(NnsigError):
    """Protocol session method called out of order."""


class MalformedFrame(NnsigError):
    """Wire frame is truncated or otherwise unparseable."""


class UnknownTag(MalformedFrame):
    """Wire frame carries an unrecognized message-type tag."""


class LengthOverflow(MalformedFrame):
    """Wire frame declares a payload length above the allowed cap."""


class MalformedEncoding(NnsigError):
    """Serialized object (key, signature, vector, matrix) fails to parse."""


class UnsupportedVersion(MalformedEncoding):
    """Serialized object has a version byte this build does not understand."""


class LimitExceeded(NnsigError):
    """Requested work is outside the configured guardrails."""
