"""Exception types shared across the package."""


class LidarPgtError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveDepth(LidarPgtError):
    """Projection or backprojection was asked for a point at depth <= 0."""


class OutOfGrid(LidarPgtError):
    """A grid pixel index lies outside the output grid."""


class OutOfVolume(LidarPgtError):
    """A box centre lies outside the rasterized 3D volume."""


class MalformedFile(LidarPgtError):
    """A file's size or layout does not match its expected format."""


class MalformedLine(LidarPgtError):
    """A text file line does not parse."""


class ShapeMismatch(MalformedFile):
    """A stored grid does not match the expected shape."""


class MissingFrameData(LidarPgtError):
    """A frame or tracking window lies outside the sequence's frames."""


class DegenerateInput(LidarPgtError):
    """Box fitting needs >= 3 points with a full-rank covariance."""


class BehindCamera(LidarPgtError):
    """A box vertex has non-positive depth in camera space."""


class ConfigInvalid(LidarPgtError):
    """A configuration value violates its documented constraints."""
