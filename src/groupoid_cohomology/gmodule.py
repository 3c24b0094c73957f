"""Abelian coefficient modules over a finite groupoid.

A module assigns a finitely generated abelian group to every object and a
compatible isomorphism to every arrow: alpha_g maps the fiber at s(g) to the
fiber at r(g), functorially. Fibers may differ between objects; constant
modules are just the special case where they agree and every arrow acts as
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbHom, FinAbGroup, ShapeError, hom_is_well_defined
from .groupoid import FiniteGroupoid, GroupoidMorphism, Report


@dataclass(frozen=True)
class GModule:
    """A bundle of abelian groups over the objects with an arrow action."""

    base: FiniteGroupoid
    fibers: tuple[FinAbGroup, ...]
    actions: tuple[AbHom, ...]

    def __post_init__(self):
        if len(self.fibers) != self.base.n_objects:
            raise ShapeError("need one fiber per object")
        if len(self.actions) != self.base.n_arrows:
            raise ShapeError("need one action per arrow")

    def fiber(self, x):
        return self.fibers[x]

    def action(self, g):
        return self.actions[g]

    def act(self, g, v):
        """alpha_g applied to an element of the fiber at s(g)."""
        return self.actions[g].apply(v)

    @property
    def all_fibers_finite(self):
        return all(f.is_finite for f in self.fibers)


def validate_module(A):
    """Exhaustive check of the module axioms over every arrow and pair.

    alpha must be well defined fiberwise, functorial (alpha_{gh} =
    alpha_g o alpha_h), the identity on units, and invertible (checked via
    the inverse arrow).
    """
    G = A.base
    fails = []
    for g in G.arrows():
        h = A.actions[g]
        if (h.source.orders != A.fibers[G.src[g]].orders
                or h.target.orders != A.fibers[G.tgt[g]].orders):
            fails.append(f"action of arrow {g} has wrong source/target fibers")
            continue
        if not hom_is_well_defined(h):
            fails.append(f"action of arrow {g} is not well defined on the presentation")
    if fails:
        return Report(False, fails)
    for x in G.objects():
        if not A.actions[G.unit[x]].equals(AbHom.identity(A.fibers[x])):
            fails.append(f"unit of object {x} does not act as the identity")
    for (g, h), gh in G.comp.items():
        if not A.actions[gh].equals(A.actions[g].compose(A.actions[h])):
            fails.append(f"functoriality fails on the pair ({g},{h})")
    for g in G.arrows():
        gi = G.inv[g]
        both = A.actions[g].compose(A.actions[gi])
        if not both.equals(AbHom.identity(A.fibers[G.tgt[g]])):
            fails.append(f"action of arrow {g} is not invertible via its inverse arrow")
    return Report(not fails, fails)


def constant_module(G, B):
    """The constant module: fiber B everywhere, every arrow acting trivially."""
    fibers = tuple([B for _ in G.objects()])
    actions = tuple([AbHom.identity(B) for _ in G.arrows()])
    return GModule(G, fibers, actions)


def pullback_module(f: GroupoidMorphism, A: GModule):
    """f*A: fiber at x is the fiber at f(x), arrows act through f."""
    if f.target is not A.base and f.target.comp != A.base.comp:
        raise ShapeError("module does not live over the morphism target")
    fibers = tuple(A.fibers[f.object_map[x]] for x in f.source.objects())
    actions = tuple(A.actions[f.arrow_map[g]] for g in f.source.arrows())
    return GModule(f.source, fibers, actions)


def disjoint_union_module(G, inc1, inc2, A1, A2):
    """The module on a disjoint union glued from modules on the summands."""
    fibers = [None] * G.n_objects
    actions = [None] * G.n_arrows
    for x in inc1.source.objects():
        fibers[inc1.object_map[x]] = A1.fibers[x]
    for x in inc2.source.objects():
        fibers[inc2.object_map[x]] = A2.fibers[x]
    for g in inc1.source.arrows():
        actions[inc1.arrow_map[g]] = A1.actions[g]
    for g in inc2.source.arrows():
        actions[inc2.arrow_map[g]] = A2.actions[g]
    return GModule(G, tuple(fibers), tuple(actions))
