"""The errors of the constructions, the census and the fields.

cli.run reports a CheckFailed with exit 1 and an error in what the user
passed with exit 2.  This module imports nothing, so the command line's top
and every module that raises one of these import it without compiling any
of the code that raises them."""


class CheckFailed(Exception):
    """An identity that a construction or census rests on does not hold.

    Not a ValueError: the input was valid, the result is wrong."""


class IncompatiblePresentation(ValueError):
    """Raised when an operation needs verify(F, T) to pass and it does not."""


class LambdaConditionFailed(CheckFailed):
    """Raised when the folding map breaks its defining identities."""


class TooLarge(ValueError):
    """Raised when an input is over a size limit: |Aut+(F)| for a search, a
    presentation or --all-kappa family, a certificate count, or a link graph
    to build or measure."""


class BadCongruence(ValueError):
    """Raised when a construction needs q congruent to 1 mod 3."""


class KappaSpecError(ValueError):
    """A sign choice whose keys do not match the datum's orbit keys."""


class ParseError(ValueError):
    """Malformed presentation document; the message names the offending key."""


class TwistCheckFailed(CheckFailed):
    """A twisted presentation built from a valid folding fails its axioms."""


class NotPrime(ValueError):
    pass


class ReduciblePolynomial(ValueError):
    pass


class NotPrimitive(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass
