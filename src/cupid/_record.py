"""The base of the library's records: plain classes whose fields are their
__slots__, in order.

Records of one class compare equal when their fields do (as tuples, so
arrays compare by identity first), and their repr names the class and each
field. A Record can be assigned to and is unhashable; a FrozenRecord
refuses assignment and deletion with AttributeError and hashes by its
fields. A frozen record's __init__ sets its fields with set_field.
"""

set_field = object.__setattr__


class Record:
    __slots__ = ()
    # fields that neither equality nor hashing reads
    _uncompared: tuple[str, ...] = ()

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__
                     if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._compared())
