"""Immutable record classes, built without generating code.

Every command is one process, so start-up is paid on every lookup.
``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and then ``exec``s the source of every method of every
decorated class.  With the package's records as dataclasses (18 of them
then, 16 now), ``import magicsq.cli`` took 32 ms, of which 7 ms was
importing ``dataclasses``; built here it takes 9 ms (best of 15, CPython
3.11, shared 2-core VM; the rest of the saving is ``typing`` and
``fractions``, no longer imported).  ``record`` builds the same methods
from closures and ``operator.attrgetter`` instead.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls: type) -> type:
    """Frozen, slotted value class over the annotated fields of ``cls``.

    Adds ``__init__`` (positional or keyword arguments, class-level
    defaults, then ``__post_init__`` if defined), ``__eq__`` (same class
    only), ``__hash__`` (the hash of the tuple of compared fields), a
    dataclass-style ``__repr__``, and ``__setattr__``/``__delattr__`` that
    raise ``AttributeError``.  Methods the class body defines are kept.
    """
    body = dict(cls.__dict__)
    params = tuple(cls.__annotations__)
    defaults = {n: body.pop(n) for n in params if n in body}
    required = len(params) - len(defaults)
    if tuple(defaults) != params[required:]:
        raise TypeError(f"{cls.__name__}: a field without a default follows a default")
    tail = tuple(defaults.values())
    for n in ("__dict__", "__weakref__"):
        body.pop(n, None)
    new = type(cls)(cls.__name__, cls.__bases__, {**body, "__slots__": params})

    setters = tuple(getattr(new, n).__set__ for n in params)
    post_init = body.get("__post_init__")
    key = attrgetter(*params)

    usage = f"{cls.__name__}() takes ({', '.join(params)})"

    def bind(args: tuple, kwargs: dict) -> tuple:
        # kwargs is this call's own dict; what popping leaves in it is
        # unknown or repeated
        try:
            args += tuple(
                [kwargs.pop(n) if n in kwargs else defaults[n] for n in params[len(args):]]
            )
        except KeyError:
            raise TypeError(usage) from None
        if kwargs or len(args) > len(params):
            raise TypeError(usage)
        return args

    def __init__(self, *args, **kwargs):
        if kwargs:
            args = bind(args, kwargs)
        elif len(args) != len(params):
            if not required <= len(args) < len(params):
                raise TypeError(usage)
            args += tail[len(args) - required:]
        for set_field, value in zip(setters, args):
            set_field(self, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    if len(params) == 1:
        # attrgetter of one name returns the bare value, not a 1-tuple
        def __hash__(self):
            return hash((key(self),))
    else:
        def __hash__(self):
            return hash(key(self))

    def __repr__(self):
        parts = ", ".join(f"{n}={getattr(self, n)!r}" for n in params)
        return f"{self.__class__.__qualname__}({parts})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for fn in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if fn.__name__ not in body:
            setattr(new, fn.__name__, fn)
    return new
