"""Exception types shared across the package, and the input-boundary rules they back."""

import operator
from contextlib import contextmanager
from itertools import chain

import numpy as np


class PdakitError(Exception):
    """Base class for all pdakit errors."""


class MalformedGrid(PdakitError):
    """Raw array input is not a rectangular grid of stars and positive integers."""


class InvalidParameter(PdakitError):
    """A numeric argument is outside its legal range."""


class InvalidPda(PdakitError):
    """An array claimed to be a placement delivery array fails validation."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class DegreeViolation(PdakitError):
    """User-side vertices of a bipartite graph do not all have the same degree."""


class ColoringViolation(PdakitError):
    """An edge coloring is not a strong edge coloring."""


class IncompleteColoring(PdakitError):
    """An operation requiring a fully colored graph found an uncolored edge."""


class InvalidPlacement(PdakitError):
    """A per-column star pattern does not match the declared star count."""


class LengthMismatch(PdakitError):
    """Paired sequences have different lengths."""


class ShapeError(PdakitError):
    """Tensor shapes passed to a network operation are inconsistent."""


class VocabularyError(PdakitError):
    """An edge index falls outside the embedding table of the model."""


class NoFeasibleAction(PdakitError):
    """Every pointer position is masked out at a decode step."""


class InvalidPointer(PdakitError):
    """A pointer choice refers to a position after the current step."""


class BadTarget(PdakitError):
    """A target color sequence is not in canonical consecutive form."""


class InvalidBatch(PdakitError):
    """A parameter update was requested on an empty batch."""


class DivergenceError(PdakitError):
    """Training produced non-finite parameters.

    Carries the last finite parameter set as ``checkpoint``.
    """

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint


class DimensionError(PdakitError):
    """Simulation inputs disagree on packet or user counts."""


class DecodeError(PdakitError):
    """A user could not cancel a broadcast; the underlying array is broken."""


class ParseError(PdakitError):
    """A file does not conform to its declared format.

    ``line`` and ``token`` locate the first offending token (1-based line,
    0-based token index within the line) when known.
    """

    def __init__(self, message, line=None, token=None):
        super().__init__(message)
        self.line = line
        self.token = token


def read_text(path) -> str:
    """The whole file as text; bytes that are not UTF-8 are a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def index(x, what: str, stop: int | None = None, start: int | None = None) -> int:
    """An integer a caller hands the library, read with operator.index; at least start if given.

    Python and numpy integers pass.  Anything int() would truncate or parse
    (1.5, np.float64(1.0), "1") is InvalidParameter, and so is bool, as as_grid refuses it.
    With stop, the integer must also be below stop, and start defaults to 0.
    """
    try:
        i = operator.index(x)
    except TypeError:
        i = None
    if i is None or isinstance(x, bool):
        raise InvalidParameter(f"{what} {x!r} is not an integer")
    if stop is not None and not (start or 0) <= i < stop:
        raise InvalidParameter(f"{what} {i} is not in {start or 0}..{stop - 1}")
    if start is not None and i < start:
        raise InvalidParameter(f"{what} {i} is below {start}")
    return i


def indices(xs, what: str) -> list[int]:
    """index over a sequence, as a list; it runs per element only when one is not an int."""
    xs = list(xs)
    return xs if set(map(type, xs)) <= {int} else [index(x, what) for x in xs]


def int64s(xs, what: str, start: int | None = None) -> np.ndarray:
    """A caller's integers as an int64 array, each read by indices; an array keeps its shape.

    A signed integer array is cast, an int64 one with no copy; any other is read entry by
    entry.  InvalidParameter for a value past int64 and, with start, the first below start.
    """
    if isinstance(xs, np.ndarray) and np.issubdtype(xs.dtype, np.signedinteger):
        out = xs.astype(np.int64, copy=False)
    else:
        flat = indices(xs.ravel().tolist() if isinstance(xs, np.ndarray) else xs, what)
        try:
            out = np.fromiter(flat, np.int64, len(flat)).reshape(getattr(xs, "shape", -1))
        except OverflowError:
            raise InvalidParameter(f"{what} does not fit in int64") from None
    if start is not None and np.count_nonzero(out < start):
        raise InvalidParameter(f"{what} {out[out < start][0]} is below {start}")
    return out


def cells(pairs, what: str, shape=None) -> np.ndarray:
    """A caller's (i, j) pairs as an (n, 2) int64 array, each index read by int64s.

    An int64 (n, 2) array, as this returns, passes as it is.  InvalidParameter for
    what is not a sequence of pairs, an index past int64 and, with shape given,
    the first cell outside it.
    """
    out = pairs
    if not (isinstance(pairs, np.ndarray) and pairs.dtype == np.int64 and pairs.shape[1:] == (2,)):
        try:
            rows = list(pairs)
            two = (all(issubclass(t, (tuple, list, np.ndarray)) for t in set(map(type, rows)))
                   and set(map(len, rows)) <= {2})
        except TypeError:  # pairs is not iterable, or a row is a 0-d array
            two = False
        if not two:
            raise InvalidParameter(f"{what}s must be (i, j) pairs: tuples, lists or array rows")
        out = int64s(chain.from_iterable(rows), what).reshape(-1, 2)
    if shape is not None:
        outside = (out < 0) | (out >= shape)
        if np.count_nonzero(outside):
            i, j = out[outside.any(axis=1).argmax()].tolist()
            raise InvalidParameter(f"{what} ({i}, {j}) is outside the {shape[0]} x {shape[1]} grid")
    return out


def json_int(value, what: str) -> int:
    """A JSON integer as read by ``json``; bool, float and string are ParseError."""
    if type(value) is not int:
        raise ParseError(f"{what} {value!r} is not an integer")
    return value


@contextmanager
def allocating(message: str):
    """Numpy refusing the allocation inside is the request's fault: InvalidParameter(message).

    Numpy refuses with MemoryError, or with ValueError for more elements
    than an index can address.  Wrap only the allocating call.
    """
    try:
        yield
    except (MemoryError, ValueError):
        raise InvalidParameter(message) from None
