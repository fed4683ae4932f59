"""Record classes: the value-type methods of a frozen dataclass, from the
class's annotated field names.

``@record`` gives a class whose body annotates its fields

* ``__init__`` taking the fields positionally or by keyword (a value in the
  class body is the field's default), then calling ``__post_init__`` if the
  class has one;
* ``==`` between records of the same class, field by field, and ``hash``
  of the field tuple;
* ``repr`` as ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.

``@record(frozen=False)`` leaves assignment alone and makes the record
unhashable.  A field declared ``= DERIVED`` is left out of ``__init__``,
``==``, ``hash`` and ``repr``; ``__post_init__``, or the function that
builds the record, sets it with ``object.__setattr__``.

The methods are closures over the field names: building a class compiles no
code, and this module imports nothing beyond ``operator``.
"""

from operator import attrgetter

DERIVED = object()


def _field_tuple(names):
    """A function from a record to the tuple of its ``names`` fields."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return attrgetter(*names)


def _bind(cls, names, defaults, args, kwargs):
    """The field values of ``cls(*args, **kwargs)``, in field order."""
    if len(args) > len(names):
        raise TypeError("%s() takes %d positional arguments but %d were given"
                        % (cls.__qualname__, len(names), len(args)))
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError("%s() got an unexpected keyword argument %r"
                            % (cls.__qualname__, name))
        if name in values:
            raise TypeError("%s() got multiple values for argument %r"
                            % (cls.__qualname__, name))
        values[name] = value
    for name in names:
        if name not in values:
            if name not in defaults:
                raise TypeError("%s() missing required argument %r"
                                % (cls.__qualname__, name))
            values[name] = defaults[name]
    return {name: values[name] for name in names}


def _frozen_setattr(self, name, value):
    raise AttributeError("cannot assign to field %r" % name)


def _frozen_delattr(self, name):
    raise AttributeError("cannot delete field %r" % name)


def record(cls=None, *, frozen=True):
    """Install the record methods on ``cls`` (see the module docstring)."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(n for n in cls.__annotations__
                  if cls.__dict__.get(n) is not DERIVED)
    for n in cls.__annotations__:
        if n not in names:
            delattr(cls, n)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    values = _field_tuple(names)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            self.__dict__.update(_bind(cls, names, defaults, args, kwargs))
        else:
            self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in names))

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__repr__ = __repr__
    cls.__hash__ = __hash__ if frozen else None
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    return cls
