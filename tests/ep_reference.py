"""Independent numerical cross-check of the closed-form EP location.

``refine_ep`` finds the EP by a 2-D root find with scipy, sharing nothing with
``epdyn.model.locate_ep`` but the Hamiltonian, so the two agreeing checks the
closed form. It lives beside the tests because only they call it, and scipy
is a test-only dependency.
"""

from scipy import optimize

from epdyn import FieldPoint, SystemParams, build_hamiltonian, discriminant


def refine_ep(params: SystemParams, seed: FieldPoint, tol: float = 1e-12) -> FieldPoint:
    """Numerically solve discriminant = 0 from a seed field point.

    A 2-D root find on (Re[Delta], Im[Delta]) over (omega, eps0).
    """

    def residual(x):
        fp = FieldPoint(omega=float(x[0]), eps0=float(max(x[1], 0.0)))
        delta = discriminant(build_hamiltonian(params, fp))
        return [delta.real, delta.imag]

    sol = optimize.root(residual, x0=[seed.omega, seed.eps0], method="hybr", tol=tol)
    if not sol.success:
        raise RuntimeError(f"EP root-find failed: {sol.message}")
    return FieldPoint(omega=float(sol.x[0]), eps0=float(sol.x[1]))
