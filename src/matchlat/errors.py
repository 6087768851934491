"""Exception hierarchy shared across the package.

Every domain failure raises a subclass of :class:`MatchlatError`; the CLI
maps these onto its exit-code contract (input errors vs. cap overruns).
"""


class MatchlatError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MatchlatError):
    """Malformed description, spec string, or file."""


class SizeCapExceeded(MatchlatError):
    """A configured size cap would be exceeded; nothing is truncated silently."""


# --- graph construction -------------------------------------------------

class NotBipartite(MatchlatError):
    """The underlying graph contains an odd cycle."""


class ImproperColoring(MatchlatError):
    """Some edge joins two vertices of the same color."""


class Disconnected(MatchlatError):
    """The graph is not connected."""


class EulerViolation(MatchlatError):
    """Face tracing contradicts V - E + F = 2, so the rotation is not planar."""


class DuplicateEdge(MatchlatError):
    """The edge list repeats an edge."""


class InputRequired(MatchlatError):
    """The outer face cannot be inferred and must be supplied."""


# --- matchings and cycles -----------------------------------------------

class NoPerfectMatching(MatchlatError):
    """The graph has no perfect matching."""


class NotAMatching(MatchlatError):
    """An edge set is not a perfect matching of the host graph."""


class NotACycle(MatchlatError):
    """An edge set does not form a single simple cycle."""


# --- flip digraph and posets --------------------------------------------

class CycleDetected(MatchlatError):
    """The flip digraph contains a directed cycle (orientation bug, not a valid state)."""


class HasseMismatch(MatchlatError):
    """An arc of the flip digraph is implied by transitivity (bug signal)."""


class MultipleSources(MatchlatError):
    """More than one source matching; carries the component breakdown."""


class MultipleSinks(MatchlatError):
    """More than one sink matching; carries the component breakdown."""


class NotAPath(MatchlatError):
    """A matching sequence is not a directed path of the flip digraph."""


class NotOuterplane(MatchlatError):
    """The graph is not 2-connected outerplane."""


class DirectedCycleInInnerDual(MatchlatError):
    """The oriented inner dual contains a directed cycle (reported, never repaired)."""


# --- lattices -------------------------------------------------------------

class NotALattice(MatchlatError):
    """Some pair of elements lacks a meet or a join; carries a witness pair."""


class NotGraded(MatchlatError):
    """The rank function is not graded by covers."""


class DuplicateComplement(MatchlatError):
    """An element has two complements, falsifying distributivity."""


class NotComplementary(MatchlatError):
    """The supplied pair is not complementary."""


class ChainNotSaturated(MatchlatError):
    """A chain argument is not a saturated chain with the required endpoints."""


class ProductMismatch(MatchlatError):
    """The factor product is not isomorphic to the decomposed lattice (bug signal)."""


class IsoFailure(MatchlatError):
    """A certified isomorphism check failed; carries a minimal witness."""


# --- generators -----------------------------------------------------------

class InvalidRowLengths(MatchlatError):
    """Row lengths must be positive and non-increasing."""


class NotATree(MatchlatError):
    """The arc set is not an orientation of a tree."""


class ColorClash(MatchlatError):
    """No opposite-color pair of outer-boundary vertices is available."""


class EmbeddingConflict(MatchlatError):
    """Components cannot be merged into a single plane embedding."""
