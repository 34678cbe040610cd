"""The base of hierwave's immutable value types, and the bounded repr that
error messages show.  This module imports nothing from hierwave, so that
simulate and classify use it without loading rep_theory or state_tree."""

# The most characters of a rejected value's repr that an error message shows:
# a message stays well below cli.MAX_ERROR_CHARS, whatever the value's size.
_SHOWN = 500


def _shown(value) -> str:
    """repr(value), or its first _SHOWN characters and its length when longer;
    an int too long for repr() shows its size, and any other value whose
    repr() fails (a list holding such an int) its type."""
    try:
        text = repr(value)
    except ValueError:  # past sys.get_int_max_str_digits() digits
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a value of type {type(value).__name__} that repr() cannot show"
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text)} characters)"


class _Value:
    """Base of hierwave's immutable value types.  A subclass names its fields in
    __slots__, in constructor order, sets them once in __init__ through
    object.__setattr__, and writes out its own __eq__, true only within the
    class, and __hash__, of the field tuple (a tree's, of its pre-order
    sequence).  The repr is the class name and each field=value in order; a
    field can be neither assigned nor deleted; copy and pickle rebuild a value
    through the validating constructor."""

    __slots__ = ()

    def __repr__(self) -> str:
        """The text a frozen dataclass would show, built from an explicit
        stack: nested values and plain tuples are expanded there, so a tree
        of any depth has a repr.  On the stack a str is finished text; any
        other item is a value or tuple still to expand."""
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            if isinstance(item, _Value):
                names = item.__slots__
                head, tail = f"{item.__class__.__qualname__}(", ")"
                labels, values = [f"{name}=" for name in names], [getattr(item, name) for name in names]
            else:  # a plain tuple
                head, tail = "(", ",)" if len(item) == 1 else ")"
                labels, values = [""] * len(item), item
            pieces = [head]
            for i, (label, value) in enumerate(zip(labels, values)):
                nested = isinstance(value, _Value) or value.__class__ is tuple
                pieces += (", " if i else "", label, value if nested else repr(value))
            pieces.append(tail)
            stack.extend(reversed(pieces))
        return "".join(out)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
