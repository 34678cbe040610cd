"""Symmetry-breaking and repair cascades.

An organism is a target irrep plus a list of components, each carrying
its own irrep and, optionally, a decomposition into subcomponents one
level further down.  Removing components can make the remaining tensor
product lose the target irrep; repair descends level by level (only
neighboring levels interact, so a component is only ever replaced by its
immediate subcomponents) until the product again contains the target or
the depth budget runs out.  The ionization/recombination pair is the
two-level special case: remove one tagged component, then re-add a fresh
one with the same irrep.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterator
from itertools import zip_longest

from ._value import _Value
from .rep_theory import IrrepLabel, IrrepSum, decompose_product, format_j, parse_j


class EmptyRemainderError(ValueError):
    """Removal would leave no components at all."""


class ComponentSpec(_Value):
    """A component with its irrep and its subcomponents one level down.

    Equality and hash go over the pre-order (name, irrep, subcomponent count)
    sequence, which fixes the tree, so they do not recurse and depth is
    unbounded."""

    __slots__ = ("name", "irrep", "subcomponents")

    def __init__(self, name: str, irrep: IrrepLabel, subcomponents: tuple[ComponentSpec, ...] = ()) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "irrep", irrep)
        object.__setattr__(self, "subcomponents", tuple(subcomponents))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same_forest((self,), (other,))

    def __hash__(self) -> int:
        return hash(tuple(_preorder((self,))))

    def validate(self, path: str = "") -> list[str]:
        """A component must be buildable from its own parts: its irrep must
        occur in the product of its subcomponents' irreps.  Problems come in
        pre-order, from an explicit stack, so depth is bounded by memory and
        not by the recursion limit."""
        problems: list[str] = []
        stack = [(self, path)]
        while stack:
            comp, path = stack.pop()
            here = f"{path}/{comp.name}" if path else comp.name
            if comp.subcomponents:
                product = decompose_product([c.irrep for c in comp.subcomponents])
                if product.multiplicity(comp.irrep) < 1:
                    problems.append(
                        f"{here}: irrep {comp.irrep} not contained in subcomponent product {product}"
                    )
                stack.extend((sub, here) for sub in reversed(comp.subcomponents))
        return problems


def _preorder(components: tuple[ComponentSpec, ...]) -> Iterator[tuple[str, IrrepLabel, int]]:
    """The pre-order (name, irrep, subcomponent count) sequence of a list of
    components, from an explicit stack; each tree in it ends where its counts
    say, so the sequence fixes the list."""
    stack = list(reversed(components))
    while stack:
        comp = stack.pop()
        yield comp.name, comp.irrep, len(comp.subcomponents)
        stack.extend(reversed(comp.subcomponents))


def _same_forest(a: tuple[ComponentSpec, ...], b: tuple[ComponentSpec, ...]) -> bool:
    """True iff two lists of components are equal, name, irrep and shape."""
    return all(p == q for p, q in zip_longest(_preorder(a), _preorder(b)))


class Organism(_Value):
    """A target irrep and the components that should build it; equality and
    hash, like ComponentSpec's, do not recurse."""

    __slots__ = ("target_irrep", "components")

    def __init__(self, target_irrep: IrrepLabel, components: tuple[ComponentSpec, ...]) -> None:
        object.__setattr__(self, "target_irrep", target_irrep)
        object.__setattr__(self, "components", tuple(components))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.target_irrep == other.target_irrep and _same_forest(self.components, other.components)

    def __hash__(self) -> int:
        return hash((self.target_irrep, *_preorder(self.components)))

    def validate(self) -> list[str]:
        problems: list[str] = []
        if not self.components:
            problems.append("organism has no components")
        else:
            product = decompose_product([c.irrep for c in self.components])
            if product.multiplicity(self.target_irrep) < 1:
                problems.append(
                    f"intact component product {product} does not contain target {self.target_irrep}"
                )
        for comp in self.components:
            problems.extend(comp.validate())
        return problems


class RemovalAction(_Value):
    __slots__ = ("removed_indices",)

    def __init__(self, removed_indices: frozenset[int]) -> None:
        removed_indices = frozenset(removed_indices)
        if not removed_indices:
            raise ValueError("removal action must remove at least one component")
        if any(i < 0 for i in removed_indices):
            raise ValueError("component indices must be non-negative")
        object.__setattr__(self, "removed_indices", removed_indices)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.removed_indices == other.removed_indices

    def __hash__(self) -> int:
        return hash((self.removed_indices,))


class Remainder(namedtuple("Remainder", ("target_irrep", "components", "complete"))):
    """What is left after an amputation; ``complete`` records whether the
    remaining product still contains the target irrep."""

    __slots__ = ()


CascadeStep = namedtuple("CascadeStep", ("depth", "component_names", "product", "target_multiplicity", "rebuilt"))
CascadeResult = namedtuple("CascadeResult", ("feasible", "levels_descended", "steps", "cost", "witness_irreps"))


def _remainder(target: IrrepLabel, components: tuple[ComponentSpec, ...]) -> Remainder:
    """The remainder of components, complete when their product contains target."""
    product = decompose_product([c.irrep for c in components])
    return Remainder(target, components, product.multiplicity(target) >= 1)


def amputate(org: Organism, gamma: RemovalAction) -> Remainder:
    """Remove the indicated components and report whether the remaining
    product still contains the target irrep."""
    if any(i >= len(org.components) for i in gamma.removed_indices):
        raise ValueError("removal index out of range")
    remaining = tuple(
        c for i, c in enumerate(org.components) if i not in gamma.removed_indices
    )
    if not remaining:
        raise EmptyRemainderError("all components removed")
    return _remainder(org.target_irrep, remaining)


def repair(remainder: Remainder, max_depth: int) -> CascadeResult:
    """Run the repair cascade on a remainder.

    At each depth the product of the current component irreps is checked
    for the target; on failure every component owning subcomponents is
    replaced by them and the check repeats, up to ``max_depth`` descents.
    The cascade stops early when no component has subcomponents.
    Cost counts subcomponents materialized across all descents.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    comps = list(remainder.components)
    steps: list[CascadeStep] = []
    cost = 0
    for depth in range(max_depth + 1):
        product = decompose_product([c.irrep for c in comps])
        mult = product.multiplicity(remainder.target_irrep)
        steps.append(CascadeStep(depth, tuple(c.name for c in comps), product, mult, mult >= 1))
        n_sub = sum(len(c.subcomponents) for c in comps)
        if mult >= 1 or depth == max_depth or not n_sub:
            break
        cost += n_sub
        comps = [s for c in comps for s in c.subcomponents or (c,)]
    return CascadeResult(mult >= 1, depth, tuple(steps), cost, tuple(c.irrep for c in comps))


def ionize_recombine(
    atom: Organism,
    electron_index: int | None = None,
    replacement_irrep: IrrepLabel | None = None,
) -> tuple[Remainder, Remainder]:
    """Remove the electron-analogue component, then re-add a fresh one.

    The electron component is picked by index, or by name "electron" when
    no index is given.  The replacement defaults to the removed irrep;
    passing a different irrep reports honestly whether the target is
    still recovered.
    """
    if len(atom.components) < 2:
        raise ValueError("ionization needs at least two components")
    if electron_index is None:
        matches = [i for i, c in enumerate(atom.components) if c.name.lower() == "electron"]
        if len(matches) != 1:
            raise ValueError("no unique component named 'electron'; pass electron_index")
        electron_index = matches[0]
    removed = atom.components[electron_index]
    broken = amputate(atom, RemovalAction(frozenset({electron_index})))
    fresh = ComponentSpec(
        name=f"{removed.name}'",
        irrep=replacement_irrep if replacement_irrep is not None else removed.irrep,
    )
    return broken, _remainder(atom.target_irrep, broken.components + (fresh,))


# --- JSON scenario files ------------------------------------------------------
#
# {"target": "0", "components": [{"name": ..., "irrep": "1/2",
#                                 "subcomponents": [...]}, ...]}


def _component_from_obj(obj: dict) -> ComponentSpec:
    return ComponentSpec(
        name=str(obj["name"]),
        irrep=IrrepLabel(parse_j(str(obj["irrep"]))),
        subcomponents=tuple(_component_from_obj(c) for c in obj.get("subcomponents", [])),
    )


def organism_to_obj(org: Organism) -> dict:
    """The scenario object of org, built from an explicit stack, so depth is
    bounded by memory and not by the recursion limit; a component has a
    "subcomponents" key only when it has subcomponents."""
    components: list[dict] = []
    stack = [(comp, components) for comp in reversed(org.components)]
    while stack:
        comp, siblings = stack.pop()
        obj: dict = {"name": comp.name, "irrep": format_j(comp.irrep.twice_j)}
        siblings.append(obj)
        if comp.subcomponents:
            obj["subcomponents"] = subs = []
            stack.extend((sub, subs) for sub in reversed(comp.subcomponents))
    return {"target": format_j(org.target_irrep.twice_j), "components": components}


def organism_from_obj(obj: dict) -> Organism:
    try:
        return Organism(
            target_irrep=IrrepLabel(parse_j(str(obj["target"]))),
            components=tuple(_component_from_obj(c) for c in obj["components"]),
        )
    except KeyError as exc:
        raise ValueError(f"not a hierwave scenario: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"not a hierwave scenario: {exc}") from None


def load_organism(path: str) -> Organism:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return organism_from_obj(json.load(fh))
        except RecursionError as exc:  # nested too deep to read or to build
            raise ValueError(f"not a hierwave scenario: {exc}") from None
