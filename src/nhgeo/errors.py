"""Exception hierarchy.

Numerical failure modes are first-class: callers (in particular the sweep
driver) catch :class:`NhgeoError` and record the class name as a status flag
instead of aborting.
"""
from __future__ import annotations


class NhgeoError(Exception):
    """Base class for all numerical / model errors raised by this package.

    ``block`` is the flat index of the lowest failing block when the error
    comes from a blockwise check on a stack of matrices (0 from a check of a
    single matrix), else None.  It is
    given to the constructor, so ``raise Error(msg, block=i)`` leaves no
    local name that would tie the raising frame to its own traceback.
    """

    def __init__(self, *args, block: int | None = None):
        super().__init__(*args)
        self.block = block


class NonConvergence(NhgeoError):
    """Eigensolver failed to converge or violated its residual contract."""


class NearDefective(NhgeoError):
    """Eigenvector matrix is too ill-conditioned to trust (near a defective point)."""


class SingularMatrix(NhgeoError):
    """Matrix inverse requested for a (numerically) singular matrix."""


class SingularPencil(NhgeoError):
    """Some eigenvalue pair x_i + x_j vanishes: the continuous-Lyapunov-type
    equation has no unique solution (non-unique steady state)."""


class DegenerateSpectrum(NhgeoError):
    """Two eigenvalues coincide within tolerance where a nondegenerate
    spectrum is required (e.g. unregularized transport-generator elements)."""


class ContinuationAmbiguous(NhgeoError):
    """Eigenstate matching across a finite-difference stencil is ambiguous
    (best overlap below threshold, or the assignment is not one-to-one)."""


class NotHermitian(NhgeoError):
    """Operation requires a Hermitian matrix."""


class OnCriticalLine(NhgeoError):
    """Parameters sit exactly on a phase boundary where the requested
    closed form diverges or the phase label is undefined."""


class CriticalKPoint(NhgeoError):
    """A momentum-grid point hits a band crossing (vanishing denominator)."""


class FSingular(NhgeoError):
    """The phase-dependent part of the thermodynamic tensor has a pole at
    the requested parameters (delta = 0 or delta = +-t inside this phase)."""


class UndefinedAngle(NhgeoError):
    """Both arguments of the two-argument arctangent vanish."""


class BranchDomainError(NhgeoError):
    """Parameters outside the domain of the requested closed-form branch."""


class BadHamiltonian(NhgeoError):
    """Single-particle matrix is not antisymmetric purely-imaginary Hermitian."""


class BadBath(NhgeoError):
    """Bath matrix is not Hermitian positive-semidefinite."""


class NonUniqueSteadyState(NhgeoError):
    """min_j Re(x_j) <= 0: the steady state is not unique."""


class DegenerateRapidities(NhgeoError):
    """Degenerate normal-mode rates with a nonzero coupling between them:
    the off-diagonal generator elements are ill-defined."""


class PureStateSingular(NhgeoError):
    """Correlation-matrix eigenvalue pair with gamma_j*gamma_k = 1
    (pure-state direction): logarithmic derivative undefined."""


class TooLarge(NhgeoError):
    """Dense Fock-space construction requested beyond the supported size."""


class ShapeMismatch(NhgeoError):
    """Inconsistent matrix / vector shapes."""


class DegenerateKernel(NhgeoError):
    """Superoperator kernel is not one-dimensional within tolerance."""
