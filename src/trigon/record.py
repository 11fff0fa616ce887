"""Frozen records: the one base of the package's value and identity classes.

A record is a plain class whose annotated fields the constructor sets once,
by position or by keyword; assigning or deleting an attribute then raises
AttributeError.  It is not a dataclass: importing dataclasses loads inspect,
ast, dis and tokenize, and each decorated class then compiles its generated
methods.  Without them, import trigon.cli went from 30 to 19 ms (median of
15 starts, no cached bytecode, 2-core Xeon, Python 3.11), and a command
that makes more records saves more; this module takes about 1 ms."""

from operator import attrgetter


class Record:
    """Base of a frozen record.  A subclass annotates its fields in order and
    states eq: with eq=True it compares and hashes by its fields, like a
    frozen dataclass; with eq=False by identity.

    The field names are read once, when the subclass is made.  A subclass
    that checks its fields overrides __init__ and calls this one.  An
    eq=False record may also derive attributes or hold a cache there,
    written with vars(self).update; a value record may not, as it compares
    its instance dict."""

    def __init_subclass__(cls, *, eq):
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if eq:
            cls._values = attrgetter(*cls._fields)
        else:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(args)}"
            )
        values = dict(zip(names, args))
        for name in kwargs:
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__} got an unexpected or "
                                f"repeated field {name!r}")
        values.update(kwargs)
        if len(values) != len(names):
            missing = [name for name in names if name not in values]
            raise TypeError(f"{type(self).__name__} is missing fields {missing}")
        vars(self).update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # the identity test answers a record compared with itself at once, and
    # comparing the instance dicts costs no more than two tuples of the
    # fields
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
