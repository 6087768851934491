"""Size caps for exhaustive, desk-scale computations.

All guarantees in this package are exact and rely on exhaustive
enumeration, so every entry point is gated by explicit caps.  Exceeding a
cap raises :class:`~matchlat.errors.SizeCapExceeded`; results are never
truncated silently.
"""

from dataclasses import dataclass

from .errors import SizeCapExceeded


@dataclass(frozen=True)
class SizeCaps:
    max_vertices: int = 64
    max_inner_faces: int = 20
    max_matchings: int = 100_000

    def check_vertices(self, n: int) -> None:
        if n > self.max_vertices:
            raise SizeCapExceeded(f"{n} vertices exceeds cap {self.max_vertices}")

    def check_inner_faces(self, n: int) -> None:
        if n > self.max_inner_faces:
            raise SizeCapExceeded(f"{n} inner faces exceeds cap {self.max_inner_faces}")

    def check_matchings(self, n: int) -> None:
        if n > self.max_matchings:
            raise SizeCapExceeded(f"{n} matchings exceeds cap {self.max_matchings}")


DEFAULT_CAPS = SizeCaps()
