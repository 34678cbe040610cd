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

from ._value import _assemble, _document, _exact, _members, _preorder, _Value
from .rep_theory import IrrepLabel, decompose_product, format_j, parse_j


class EmptyRemainderError(ValueError):
    """Removal would leave no components at all."""


class ComponentSpec(_Value):
    """A component with its irrep and its subcomponents one level down.

    Its key, which equality and hash read, is the pre-order ((name, irrep),
    subcomponent count) sequence, which fixes the tree, and copy and pickle
    rebuild it from that sequence, so none of them recurse and depth is
    unbounded."""

    __slots__ = ("name", "irrep", "subcomponents")

    def __init__(self, name: str, irrep: IrrepLabel, subcomponents: tuple[ComponentSpec, ...] = ()) -> None:
        object.__setattr__(self, "name", _exact(name, str, "name", "a str"))
        object.__setattr__(self, "irrep", _exact(irrep, IrrepLabel, "irrep", "an IrrepLabel"))
        subcomponents = _members(subcomponents, (ComponentSpec,), "subcomponents", "a sequence of ComponentSpecs")
        object.__setattr__(self, "subcomponents", subcomponents)

    def _key(self) -> tuple:
        return tuple(_preorder(self, _spec_and_subcomponents))

    def __reduce__(self):
        return _assemble, (self._key(), _component)

    def validate(self) -> list[str]:
        """A component must be buildable from its own parts: its irrep must
        occur in the product of its subcomponents' irreps.  Problems come in
        pre-order, each under its path of names from this component, from an
        explicit stack, so depth is bounded by memory and not by the
        recursion limit."""
        problems: list[str] = []
        stack = [(self, "")]
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


# the visit of _preorder and the make of _assemble for a component
def _spec_and_subcomponents(comp: ComponentSpec) -> tuple[tuple[str, IrrepLabel], tuple[ComponentSpec, ...]]:
    return (comp.name, comp.irrep), comp.subcomponents


def _component(spec: tuple[str, IrrepLabel], subcomponents: list[ComponentSpec]) -> ComponentSpec:
    return ComponentSpec(*spec, subcomponents)


class Organism(_Value):
    """A target irrep and the components that should build it; its components
    compare, hash, copy and pickle without recursion, and so does it."""

    __slots__ = ("target_irrep", "components")

    def __init__(self, target_irrep: IrrepLabel, components: tuple[ComponentSpec, ...]) -> None:
        object.__setattr__(self, "target_irrep", _exact(target_irrep, IrrepLabel, "target_irrep", "an IrrepLabel"))
        components = _members(components, (ComponentSpec,), "components", "a sequence of ComponentSpecs")
        object.__setattr__(self, "components", components)

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
        indices = frozenset(_members(removed_indices, (int,), "removed_indices", "a set of ints"))
        if not indices:
            raise ValueError("removal action must remove at least one component")
        if any(i < 0 for i in indices):
            raise ValueError("component indices must be non-negative")
        object.__setattr__(self, "removed_indices", indices)


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
    if _exact(max_depth, int, "max_depth", "an int") < 0:
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
    broken = amputate(atom, RemovalAction(frozenset({electron_index})))  # first, as it checks the index
    removed = atom.components[electron_index]
    fresh = ComponentSpec(
        name=f"{removed.name}'",
        irrep=replacement_irrep if replacement_irrep is not None else removed.irrep,
    )
    return broken, _remainder(atom.target_irrep, broken.components + (fresh,))


# --- JSON scenario files ------------------------------------------------------
#
# {"target": "0", "components": [{"name": ..., "irrep": "1/2",
#                                 "subcomponents": [...]}, ...]}


def _spec_from_obj(obj: dict) -> tuple[tuple[str, IrrepLabel], list]:
    """A scenario component's checked (name, irrep), built before its
    subcomponents are read, so the first bad one in pre-order is named."""
    return (str(obj["name"]), IrrepLabel(parse_j(str(obj["irrep"])))), list(obj.get("subcomponents", []))


def _component_obj(spec: tuple[str, IrrepLabel], subcomponents: list[dict]) -> dict:
    """A component's scenario object; "subcomponents" only when it has some."""
    name, irrep = spec
    obj: dict = {"name": name, "irrep": format_j(irrep.twice_j)}
    if subcomponents:
        obj["subcomponents"] = subcomponents
    return obj


def organism_to_obj(org: Organism) -> dict:
    """The scenario object of org, of any depth."""
    components = [_assemble(_preorder(comp, _spec_and_subcomponents), _component_obj) for comp in org.components]
    return {"target": format_j(org.target_irrep.twice_j), "components": components}


def organism_from_obj(obj: dict) -> Organism:
    """The organism of a scenario object, of any depth; a bad one raises only
    ValueError or a subclass (_value._document)."""
    return _document("scenario", "missing key", lambda obj: Organism(
        target_irrep=IrrepLabel(parse_j(str(obj["target"]))),
        components=tuple(_assemble(_preorder(c, _spec_from_obj), _component) for c in obj["components"]),
    ), obj)


def load_organism(path: str) -> Organism:
    """The organism of a scenario file; a file that is not one, or is nested
    too deep for json to read, raises only ValueError or a subclass."""
    with open(path, "r", encoding="utf-8") as fh:
        return organism_from_obj(_document("scenario", "missing key", json.load, fh))
