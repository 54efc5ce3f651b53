"""The free group F2 = <a, b> on the regular tree of degree 4, for tests.

The Cayley graph of F2 with generators a, b is TreeShape(4) rooted at the
identity: the root has the four children a, A, b, B (capitals are inverses)
and every other vertex has three, since no letter is followed by its
inverse.  So reduced words and addresses are in bijection: a letter's label
is its index among the letters allowed after the previous one, in the order
"aAbB".  An automorphism phi of F2 gives the root-fixing map
v -> reduced phi(v), whose images may lie deeper than the ball it is stored
on.  Everything here works on strings, apart from the treeqi map it builds.
"""

from __future__ import annotations

from treeqi import FiniteTreeMap, TreeShape, map_from_function

SHAPE = TreeShape(4)
LETTERS = "aAbB"
INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def reduce(word: str) -> str:
    out: list[str] = []
    for x in word:
        if out and out[-1] == INVERSE[x]:
            out.pop()
        else:
            out.append(x)
    return "".join(out)


def inverse(word: str) -> str:
    return "".join(INVERSE[x] for x in reversed(word))


def _allowed(prev: str | None) -> list[str]:
    return [y for y in LETTERS if prev is None or y != INVERSE[prev]]


def address(word: str) -> tuple:
    """Address of a reduced word."""
    labels, prev = [], None
    for x in word:
        labels.append(_allowed(prev).index(x))
        prev = x
    return tuple(labels)


def word(v: tuple) -> str:
    """Reduced word of an address."""
    out, prev = [], None
    for a in v:
        prev = _allowed(prev)[a]
        out.append(prev)
    return "".join(out)


class Automorphism:
    """An endomorphism of F2 given by the images of a and b."""

    def __init__(self, a: str, b: str):
        self.a, self.b = reduce(a), reduce(b)

    def __call__(self, w: str) -> str:
        image = {"a": self.a, "A": inverse(self.a), "b": self.b, "B": inverse(self.b)}
        return reduce("".join(image[x] for x in w))

    def after(self, other: "Automorphism") -> "Automorphism":
        """self o other: apply other first."""
        return Automorphism(self(other.a), self(other.b))

    def tree_map(self, radius: int) -> FiniteTreeMap:
        """m_phi on the ball of the given radius."""
        return map_from_function(SHAPE, radius, lambda v: address(self(word(v))))


IDENTITY = Automorphism("a", "b")
# The Nielsen generators, which generate Aut(F2), and their inverses.
NIELSEN = {
    "a->ab": Automorphism("ab", "b"),
    "a->A": Automorphism("A", "b"),
    "a<->b": Automorphism("b", "a"),
}
NIELSEN_INVERSE = {
    "a->ab": Automorphism("aB", "b"),
    "a->A": NIELSEN["a->A"],
    "a<->b": NIELSEN["a<->b"],
}


def product(names) -> tuple[Automorphism, Automorphism]:
    """The product g1 o g2 o ... of the named generators, and its inverse."""
    phi = phi_inv = IDENTITY
    for name in names:
        phi = phi.after(NIELSEN[name])
        phi_inv = NIELSEN_INVERSE[name].after(phi_inv)
    return phi, phi_inv
