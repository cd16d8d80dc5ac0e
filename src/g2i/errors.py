"""Exception types shared across the g2i package."""


class G2IError(Exception):
    """Base class for all g2i errors."""


class BadArgument(G2IError, ValueError):
    """A setting or argument outside its valid range; the message names it."""


# --- ingestion ---

class MalformedLine(G2IError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
        self.message = message

    def __reduce__(self):
        # pickled with the arguments of __init__, so that an error raised in a
        # worker process can be rebuilt in the parent
        return type(self), (self.path, self.lineno, self.message)


class AsymmetricDuplicate(G2IError):
    pass


class UnknownNodeId(G2IError):
    pass


class SelfLoop(G2IError):
    pass


class ClassTooSmall(G2IError):
    pass


# --- clustering ---

class DegenerateData(G2IError):
    pass


class SingleCluster(G2IError):
    pass


# --- transport ---

class DimensionMismatch(G2IError):
    pass


class NonConvergence(G2IError):
    pass


class NumericalUnderflow(G2IError):
    pass


class GridTooSmall(G2IError):
    pass


# --- imaging / serialization ---

class LayoutMismatch(G2IError):
    pass


class BadMagic(G2IError):
    pass


class TruncatedFile(G2IError):
    pass


class ShapeOverflow(G2IError):
    pass


# --- cnn ---

class ShapeMismatch(G2IError):
    pass


class EmptySplit(G2IError):
    pass


class TrainingDiverged(G2IError):
    pass
