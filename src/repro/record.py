"""Immutable value records built without generated code.

A ``@dataclass`` ``exec``s its generated methods when its module loads,
which every cold start without bytecode pays for.  A :class:`Record`
subclass lists its fields in ``__slots__`` and writes its own
``__init__``, filling each slot with :data:`setslot`; the base adds the
rest once per class, with no ``exec``.  Slots named ``_*`` are private
caches: pickled, but neither constructor fields nor compared.

``dataclasses.replace``, ``fields`` and ``asdict`` work on records too,
and only their callers import ``dataclasses``.
"""

from operator import attrgetter

#: ``object.__setattr__``, which fills a slot past the record's own
#: refusing ``__setattr__``; a module global is quicker to call.
setslot = object.__setattr__


def _values(names):
    """A function from a record to the tuple of its ``names`` values."""
    if len(names) == 1:
        one = attrgetter(names[0])
        return lambda record: (one(record),)
    return attrgetter(*names) if names else lambda record: ()


class _FieldTable:
    """A record class's ``__dataclass_fields__``, built on first access."""

    def __get__(self, record, cls):
        if "__dataclass_params__" not in cls.__dict__:  # set by the first build
            import dataclasses  # only callers of dataclasses' functions load it
            twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
            cls.__dataclass_params__ = twin.__dataclass_params__
            cls._field_table = twin.__dataclass_fields__
        return cls._field_table


class Record:
    """A frozen slotted record: ``==`` and ``hash`` over the compared
    fields (the class keyword ``uncompared`` names the others), with
    ``hash(r) == hash(r._key(r))`` as a frozen dataclass gives; a
    dataclass-style ``repr``; ``AttributeError`` on assignment; pickling."""

    __slots__ = ()
    _fields = ()  # the constructor fields, in order
    __dataclass_fields__ = _FieldTable()

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._slots = tuple(n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ()))
        cls._fields = tuple(n for n in cls._slots if not n.startswith("_"))
        cls._key = staticmethod(_values([n for n in cls._fields if n not in uncompared]))
        cls._state = staticmethod(_values(cls._slots))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return self._state(self)

    def __setstate__(self, state):
        for name, value in zip(self._slots, state):
            setslot(self, name, value)

    def _asdict(self) -> dict:
        """The constructor fields by name (a shallow ``dataclasses.asdict``)."""
        return {n: getattr(self, n) for n in self._fields}

    def _replace(self, **changes):
        """A copy made by the constructor, with ``changes`` (``dataclasses.replace``)."""
        return type(self)(**{**self._asdict(), **changes})
