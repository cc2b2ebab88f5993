"""Domain error types shared across the package.

Every error the library can raise on bad mathematical input derives from
DomainError, so callers (and the CLI) can distinguish domain failures from
programming bugs.
"""


class DomainError(Exception):
    pass


class ExactnessError(ArithmeticError):
    """An exact computation left the integers, or a proven invariant failed.

    Two exact routes that disagree are such a failure.  A library bug, not
    bad input, so it does not derive from DomainError.
    """


# --- cartan ---

class NotGCM(DomainError):
    """Matrix violates the generalized Cartan matrix axioms, or a node or
    node subset is not plain ints in 1..rank (cartan's one node rule)."""


class NotFiniteType(DomainError):
    """Valid GCM, but some connected component is not of finite type."""


class DiagramTooLarge(DomainError):
    """The total rank of a diagram exceeds cartan.MAX_RANK."""


class OrbitTooLarge(DomainError):
    """A Weyl orbit exceeded the configured cap."""


class NotAWeight(DomainError):
    """A weight that is not a sequence of plain ints (bool, float, Fraction, str).

    Also a numbers-game position that is not a sequence of plain ints and
    Fractions (`numbersgame.play`).
    """


# --- numbersgame ---

class IllegalFire(DomainError):
    """Attempt to fire a node whose number is not positive.

    Also a numbers-game strategy that is not "first", "all" or a sequence of
    plain ints, and a firing cap that is not a plain int >= 1
    (`numbersgame.play`).  A strategy node outside 1..rank is NotGCM, the
    node rule's error.
    """


# --- wsf ---

class NotDominant(DomainError):
    """Operation requires a dominant weight."""


class DiagramMismatch(DomainError):
    """Binary operation on objects over different diagrams."""


class NotInvariant(DomainError):
    """Group-ring element failed a Weyl-invariance check."""


class BadExponent(DomainError):
    """A power of a Weyl symmetric function whose exponent is not a plain int >= 0."""


class NotAnExpansion(DomainError):
    """A bialternant expansion given to `wsf.reconstruct` that is not a
    mapping of dominant weights to coefficients."""


# --- qpoly ---

class BadQuotient(DomainError, ValueError):
    """A quotient prod(1 - q^c) / prod(1 - q^e) with an exponent that is not
    a plain int >= 1, or one that is not a polynomial
    (`qpoly.quotient_rgf`).  Also a ValueError, which it raised before."""


# --- ecposet ---

class NotAcyclic(DomainError):
    """Edge relation contains a directed cycle."""


class NotCovering(DomainError):
    """An edge is implied by a longer path, so it is not a covering relation."""


class NotRanked(DomainError):
    """No rank function exists for the given edge relation."""


class NotMStructured(DomainError):
    """Operation requires an M-structured poset, or a poset with a diagram
    attached (ColoredPoset.checked_d)."""


class NotConnected(DomainError):
    """Operation requires a connected poset."""


class NotChainProduct(DomainError):
    """A monochromatic component failed chain-product factorization."""


class UnknownFormat(DomainError):
    """A poset export format other than "json" or "dot" (`ecposet.export_poset`)."""


class MalformedPoset(DomainError):
    """Poset JSON or a coloring witness is malformed.

    Poset JSON lacking a required key, with a number that is not a plain
    int, or with non-dense or duplicate vertex ids; witness JSON that is not
    an object, lacks S or kappa, or has non-int kappa or tau keys; and a
    witness (S, kappa, tau), from JSON or a library caller, with an entry
    that is not a plain int or a vertex that is not an id of the poset
    (`ecposet.ColoringWitness.check`); and a kappa given to
    `crystal.tau_from_jnu_coloring` that is not a (J,nu)-coloring
    (`crystal.verify_jnu_coloring` answers False).
    """


# --- crystal ---

class NotMinuscule(DomainError):
    """Weight is not dominant minuscule."""


class NotIrreducible(DomainError):
    """Operation requires an irreducible (connected) diagram."""


class NotFibrous(DomainError):
    """Crystal product requires fibrous factors."""


class NotPrimaryFactor(DomainError):
    """Vertex coloring construction requires primary factors."""


class NoExpression(DomainError):
    """No product expression found (defensive; cannot occur for finite type)."""


# --- patternlat ---

class InvalidFamilyParams(DomainError):
    """Parameters outside the family's validity range."""
