"""The base of hierwave's immutable value types, the input rules they share
(the bounded repr of error messages, the check of a field that holds one
value of an exact class, the check of a field that holds a sequence of
values, what counts as a number, and what counts as an integer in a
document), the one error contract of the document loaders, and the
pre-order walk of trees.  This module imports nothing from hierwave, so
simulate and classify use it without rep_theory or state_tree."""

from operator import attrgetter

# The most characters of a rejected value's repr that an error message shows:
# a message stays well below cli.MAX_ERROR_CHARS, whatever the value's size.
_SHOWN = 500


def _shown(value) -> str:
    """repr(value), or its first _SHOWN characters and its length when longer;
    an int too long for repr() shows its size, and any other value whose
    repr() fails (a list holding such an int, or one nested past the
    recursion limit) its type."""
    try:
        text = repr(value)
    except (ValueError, RecursionError):
        if isinstance(value, int):  # past sys.get_int_max_str_digits() digits
            return f"an int of {value.bit_length()} bits"
        return f"a value of type {type(value).__name__} that repr() cannot show"
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text)} characters)"


def _exact(value, cls, field: str, what: str, error: type[ValueError] = ValueError):
    """value when its class is exactly cls, else error "{field} must be {what},
    got ..." showing value: a subclass of cls, a bool or an IntEnum member for
    an int included, is refused."""
    if value.__class__ is cls:
        return value
    raise error(f"{field} must be {what}, got {_shown(value)}")


def _members(value, kinds: tuple, field: str, what: str) -> tuple:
    """tuple(value) when value is an iterable whose every item's class is one
    of kinds (exact classes, so a bool is not an int), else a ValueError
    "{field} must be {what}, got ..." showing value.  The items are checked
    by a plain loop: every tree operation builds one HierState per node, and
    on a tuple of 0-2 items a generator costs three to four times as much."""
    try:
        items = tuple(value)  # a TypeError if value is not an iterable
        for item in items:
            if item.__class__ not in kinds:
                raise TypeError
    except TypeError:
        raise ValueError(f"{field} must be {what}, got {_shown(value)}") from None
    return items


# A number is an item whose class is exactly one of these, the classes of a
# JSON number: a bool, an IntEnum member, a Decimal, a Fraction, a numpy
# scalar or a str is not one, in code as in a file.
_NUMBER = frozenset((int, float))


def _numbers(value, items, number, field: str, what: str) -> tuple:
    """The items of a field, each converted by number (float or complex), when
    each is a number (_NUMBER) or of exactly the class number; else a ValueError
    "{field} must be {what}, got ..." or, for an int beyond the float range,
    "{field} must lie within the float range, got ...", either showing value,
    the field's value as given: a field of one number has the items
    (value,).  Finiteness is left to the caller.  One loop checks the
    classes, and map() converts only when an item is not of class number
    already: a series of floats, or the complex amplitudes every tree
    operation passes to NodeWave, costs the loop alone."""
    try:
        items = tuple(items)  # a TypeError if items is not an iterable
        convert = False
        for item in items:
            if item.__class__ is not number:
                if item.__class__ not in _NUMBER:
                    raise TypeError
                convert = True
        return tuple(map(number, items)) if convert else items
    except TypeError:
        raise ValueError(f"{field} must be {what}, got {_shown(value)}") from None
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{field} must lie within the float range, got {_shown(value)}") from None


def _as_integer(value) -> int | None:
    """value as an int if it is an exact int, as a JSON integer is, or an
    integral exact float, else None: a subclass of either, a bool included,
    is refused."""
    if value.__class__ is int:
        return value
    if value.__class__ is float and value.is_integer():
        return int(value)
    return None


def _document(what: str, lacks: str, build, arg):
    """build(arg), under the one error contract of hierwave's document loaders:
    they raise only ValueError or a subclass, at any depth.  A KeyError reads
    "not a hierwave {what}: {lacks} 'key'", and a TypeError (a field of the
    wrong type) or a RecursionError (a field nested too deep for str(), or a
    file for json) "not a hierwave {what}: " and its own message."""
    try:
        return build(arg)
    except KeyError as exc:
        raise ValueError(f"not a hierwave {what}: {lacks} {exc}") from None
    except (TypeError, RecursionError) as exc:
        raise ValueError(f"not a hierwave {what}: {exc}") from None


def _preorder(root, visit):
    """The pre-order (item, child count) pairs of a tree, which fix it, from an
    explicit stack, so depth is unbounded.  visit(node) returns the node's
    item, built first, and then its children, which go on the stack only if
    there are any: most nodes of a hierarchy are leaves."""
    stack = [root]
    while stack:
        item, children = visit(stack.pop())
        yield item, len(children)
        if children:
            stack.extend(reversed(children))


def _assemble(pairs, make):
    """Rebuild a tree from its pre-order pairs as make(item, subtrees), bottom-up
    as they arrive.  A leaf is made at once, with a fresh empty list; a node
    with children waits on the stack until its last subtree is made."""
    stack = []  # the open nodes: (item, child count, subtrees made so far)
    for item, n_children in pairs:
        if n_children:
            stack.append((item, n_children, []))
            continue
        node = make(item, [])
        while stack:  # hand the node up, making each parent it completes
            parent, wanted, subtrees = stack[-1]
            subtrees.append(node)
            if len(subtrees) < wanted:
                break
            stack.pop()
            node = make(parent, subtrees)
        else:  # the root is made
            return node


class _Value:
    """Base of hierwave's immutable value types.  A subclass names its fields in
    __slots__, in constructor order, and sets them once in __init__ through
    object.__setattr__.  Equality (true only within one class), hash, copy
    and pickle all go through one per-class key, _key(value): by default the
    field tuple, so that a value hashes as its field tuple does and copy and
    pickle rebuild it from its class and that tuple through the validating
    constructor.  A tree defines its own _key, its flat pre-order sequence,
    and a __reduce__ that rebuilds it from that sequence with _assemble, so
    that none of these recurse.  The repr is the class name and each
    field=value in order; a field can be neither assigned nor deleted."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_key" not in cls.__dict__:
            fields = attrgetter(*cls.__slots__)  # one field gives its bare value
            cls._key = fields if len(cls.__slots__) > 1 else lambda value: (fields(value),)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self.__class__._key
        return self is other or key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self.__class__._key(self))

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
        return self.__class__, self.__class__._key(self)
