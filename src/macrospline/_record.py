"""Records: classes of annotated fields, set up without generating code.

``@record`` gives a class what ``dataclass(frozen=True)`` does, and
``@record(frozen=False)`` what ``dataclass`` does: ``__init__`` by position
or keyword in annotation order, class attributes as defaults and
``__post_init__`` last; ``repr``, ``==`` and ``hash`` (frozen only) over the
tuple of fields.  They are functions shared by every record, so no source is
compiled per class.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to or deletion of an attribute of a frozen record."""


class default_factory:
    """A field default made anew, by calling ``make``, for each instance."""

    def __init__(self, make):
        self.make = make


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls._fields
    if len(args) > len(names) or kwargs and any(name not in names or names.index(name) < len(args) for name in kwargs):
        raise TypeError(f"{cls.__name__}() takes the fields {names}, not {len(args)} positional and {tuple(kwargs)} by keyword")
    state = self.__dict__
    state.update(zip(names, args))
    for name in names[len(args):]:
        if name in kwargs:
            state[name] = kwargs[name]
        elif name in cls._defaults:
            value = cls._defaults[name]
            state[name] = value.make() if isinstance(value, default_factory) else value
        else:
            raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
    if cls._post_init:
        self.__post_init__()


def _values(self) -> tuple:
    return tuple(getattr(self, name) for name in self._fields)


def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls=None, *, frozen: bool = True):
    """Class decorator: ``cls`` as a record of its annotated fields (see the module docstring)."""

    def build(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._post_init = hasattr(cls, "__post_init__")  # looked up once, as dataclasses does
        for name, default in cls._defaults.items():
            if isinstance(default, default_factory):
                delattr(cls, name)  # a factory is no class attribute, as with dataclasses
        cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = _init, _repr, _eq, _hash if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        return cls

    return build if cls is None else build(cls)
