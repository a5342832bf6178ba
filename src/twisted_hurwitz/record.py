"""Immutable value records, not frozen dataclasses, whose methods ``exec``
builds at import.  A class names its fields once, in order, as ``__slots__ =
_fields = (...)``; a record equals only its own class's records with equal
fields, hashes and shows them in order, and refuses assignment and deletion."""

from operator import attrgetter


class Record:
    __slots__ = _fields = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(name) for name in self._fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(self._setters):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, self._fields))
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, *value):
        raise AttributeError("%s is immutable: field %r cannot be %s"
                             % (type(self).__name__, name, "assigned" if value else "deleted"))

    __delattr__ = __setattr__
