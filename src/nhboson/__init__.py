"""Exact algebra and spectral diagnostics for a non-self-adjoint
two-boson oscillator with a Gaussian-shear coupling.

Subpackages by concern: exact coefficient ring and normal-ordered operator
calculus (ring, operators), Hermite/Gaussian quadrature (quadrature),
closed-form eigenfunctions and their inner products (modes), truncated
number-basis matrices with numerical-range / pseudospectrum / accretivity
diagnostics (fock), semiclassical phase integrals (wkb), and a data-emitting
command line (cli).

Records are NamedTuples, or __slots__ classes where they check their
fields, so importing the package generates no code (no dataclasses).
"""

__version__ = "0.1.0"

from .modes import (  # noqa: F401
    ModeFunction,
    ModeKind,
    apply_hamiltonian,
    eigenvalue,
    expand_amplitudes,
    norm_growth,
)
from .operators import (  # noqa: F401
    OperatorPoly,
    commutator,
    compose,
    conjugate_by_gaussian,
    formal_adjoint,
    verify_identities,
)
from .ring import RingElem  # noqa: F401
