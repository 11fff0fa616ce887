"""The errors of the constructions, the census and the fields.

cli.run reports a CheckFailed with exit 1 and a UsageError, an error in
what the user passed, with exit 2.  This module imports nothing, so the
command line's top and every module that raises one of these import it
without compiling any of the code that raises them."""


class CheckFailed(Exception):
    """An identity that a construction or census rests on does not hold.

    Not a ValueError: the input was valid, the result is wrong."""


class UsageError(ValueError):
    """What the user passed is wrong: cli.run exits 2.  An internal failure
    is never one, so a plain ValueError is not caught as one."""


class LambdaConditionFailed(CheckFailed):
    """Raised when the folding map breaks its defining identities."""


class TooLarge(UsageError):
    """Raised when an input is over a size limit: |Aut+(F)| for a search, a
    presentation or --all-kappa family, a certificate count, or a link graph
    to build or measure."""


class BadCongruence(UsageError):
    """Raised when a construction needs q congruent to 1 mod 3."""


class KappaSpecError(UsageError):
    """A sign choice whose keys do not match the datum's orbit keys."""


class ParseError(UsageError):
    """Malformed presentation document; the message names the offending key."""


class TwistCheckFailed(CheckFailed):
    """A twisted presentation built from a valid folding fails its axioms."""


class NotPrime(UsageError):
    pass


class ReduciblePolynomial(UsageError):
    pass


class NotPrimitive(UsageError):
    pass


class DegreeMismatch(UsageError):
    pass
