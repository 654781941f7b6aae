"""Frozen value classes without code generation.

``record`` gives a class the ``__init__``, ``__repr__``, ``__eq__``,
``__hash__``, ``__setattr__`` and ``__delattr__`` that
``dataclasses.dataclass(frozen=True)`` would, built from closures over the
annotated field names.  ``dataclass`` generates those methods as source
text and runs it, which took a third of the time ``import dface.cli`` takes.
"""

from operator import itemgetter

_setattr = object.__setattr__


def record(cls):
    """Make ``cls`` a frozen value class over its annotated fields, in order.

    Fields with a class-level default must come last.  ``__post_init__``, if
    defined, runs after the fields are stored (it may replace one with
    ``object.__setattr__``); methods the class defines itself are kept.
    """
    name = cls.__name__
    names = tuple(cls.__dict__.get("__annotations__", {}))
    count = len(names)
    defaults = {key: cls.__dict__[key] for key in names if key in cls.__dict__}
    required = count - len(defaults)
    if names[required:] != tuple(defaults):
        raise TypeError(f"{name}: a field without a default follows one with a default")
    tail = tuple(defaults.values())
    slots = tuple(enumerate(names))
    get = itemgetter(*names)  # the field tuple, from the instance dict
    values = get if count > 1 else lambda fields: (get(fields),)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) != count or kwargs:
            if kwargs or not required <= len(args) < count:
                args = _bind(name, names, defaults, args, kwargs)
            else:
                args += tail[len(args) - required:]
        # one store of a fresh dict costs less than an object.__setattr__ per field
        fields = {}
        for i, key in slots:
            fields[key] = args[i]
        _setattr(self, "__dict__", fields)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join(f"{key}={value!r}" for key, value in zip(names, values(self.__dict__)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self.__dict__) == values(other.__dict__)
        return NotImplemented

    def __hash__(self):
        return hash(values(self.__dict__))

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


def _bind(name, names, defaults, args, kwargs):
    """The field values in order, after the checks Python makes on a call."""
    if len(args) > len(names):
        raise TypeError(f"{name}() takes {len(names)} arguments but {len(args)} were given")
    given = dict(zip(names, args))
    for key in kwargs:
        if key not in names:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
    given.update(kwargs)
    missing = [key for key in names if key not in given and key not in defaults]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    given = {**defaults, **given}
    return [given[key] for key in names]
