"""The frozen record base of every value class in the package.

A subclass of ``Record`` names its fields as annotations, a parent's fields
first and a class-level value as the default.  When the class is created it
gets a constructor over them, equality and hashing by class and field values,
the ``Name(field=value, ...)`` repr, and no assignment.
``functools.cached_property`` writes the instance ``__dict__`` directly, so it
still caches on a record.  Every CLI call is a new process, and
``dataclasses`` would cost each one its imports (``inspect``, ``ast``,
``dis``, ``tokenize``) and a decoration per class.
"""


class Record:
    _fields = ()

    def __init_subclass__(cls):
        own = [n for n in vars(cls).get("__annotations__", ()) if n not in cls._fields]
        cls._fields = fields = (*cls._fields, *own)
        # generated as dataclasses does, so a call costs what a hand-written method
        # does; object.__setattr__, unlike a write to self.__dict__, keeps the
        # instance's values inline, where attribute reads are fastest
        params = ", ".join(f"{n}=_cls.{n}" if hasattr(cls, n) else n for n in fields)
        stores = "".join(f"\n    _set(self, {n!r}, {n})" for n in fields)
        mine, theirs = (f"({''.join(f'{obj}.{n}, ' for n in fields)})" for obj in ("self", "other"))
        scope = {"_cls": cls, "_set": object.__setattr__}
        exec(
            f"def __init__(self, {params}):{stores}\n"
            f"def __eq__(self, other):\n    return other.__class__ is self.__class__ and {mine} == {theirs}\n"
            f"def __hash__(self):\n    return hash({mine})\n",
            scope,
        )
        for name in ("__init__", "__eq__", "__hash__"):
            setattr(cls, name, scope[name])

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")
